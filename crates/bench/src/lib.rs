//! # qrc-bench
//!
//! The evaluation harness reproducing every table and figure of the
//! paper's experimental section (Sec. IV-B):
//!
//! * **Fig. 3a–c** — histograms of the reward difference between the RL
//!   compiler and Qiskit-O3 / TKET-O2 for each metric,
//! * **Fig. 3d–f** — mean reward difference per benchmark family,
//! * **Table I** — the 3×3 cross-evaluation of models × metrics,
//! * **§IV-B summary** — the "outperforms in 73%/84%/75% of cases"
//!   headline numbers.
//!
//! Run via `cargo run --release -p qrc-bench --bin evaluate -- all`.
//! Defaults are scaled down (fewer qubits, fewer training steps) so the
//! full evaluation completes in minutes; `--full` restores the paper's
//! scale (2–20 qubits, 100k timesteps — hours, as in the paper).

#![warn(missing_docs)]

pub mod ablation;
pub mod report;
pub mod serve_bench;

use qrc_benchgen::{paper_suite, BenchmarkFamily};
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_predictor::{train_with_progress, Baseline, PredictorConfig, RewardKind, TrainedPredictor};
use rayon::prelude::*;

// `task_seed` moved to `qrc-predictor` so the serving layer can share
// it; re-exported here for existing callers.
pub use qrc_predictor::task_seed;

/// Scale/configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvalSettings {
    /// Largest benchmark width (paper: 20).
    pub max_qubits: u32,
    /// PPO training budget per model (paper: 100 000).
    pub timesteps: usize,
    /// Baseline target device (paper: `ibmq_washington`).
    pub device: DeviceId,
    /// Master seed.
    pub seed: u64,
    /// Reward-shaping step penalty (0 = the paper's sparse reward).
    pub step_penalty: f64,
    /// Print training progress.
    pub verbose: bool,
    /// Score circuits with rayon-parallel rollouts (results are
    /// byte-identical to the serial path; see [`score_suite`]).
    pub parallel: bool,
}

impl Default for EvalSettings {
    fn default() -> Self {
        EvalSettings {
            max_qubits: 6,
            timesteps: 8_000,
            device: DeviceId::IbmqWashington,
            seed: 3,
            step_penalty: 0.005,
            verbose: true,
            parallel: true,
        }
    }
}

impl EvalSettings {
    /// The paper-scale configuration (hours of runtime).
    pub fn paper_scale() -> Self {
        EvalSettings {
            max_qubits: 20,
            timesteps: 100_000,
            ..EvalSettings::default()
        }
    }
}

/// Scores of one compiled circuit under all three metrics.
pub type MetricTriple = [f64; 3];

fn metric_index(kind: RewardKind) -> usize {
    match kind {
        RewardKind::ExpectedFidelity => 0,
        RewardKind::CriticalDepth => 1,
        RewardKind::Combination => 2,
    }
}

/// Evaluation results for one benchmark circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitEval {
    /// Circuit name (`family_width`).
    pub name: String,
    /// Benchmark family.
    pub family: BenchmarkFamily,
    /// Circuit width.
    pub qubits: u32,
    /// `rl[i][j]`: model trained for metric `i`, scored under metric `j`.
    pub rl: [MetricTriple; 3],
    /// Qiskit-O3 baseline scored under each metric.
    pub qiskit: MetricTriple,
    /// TKET-O2 baseline scored under each metric.
    pub tket: MetricTriple,
}

/// Wall-clock timings of one evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalTiming {
    /// Seconds spent training the three models.
    pub train_secs: f64,
    /// Seconds spent scoring the suite (RL rollouts + baselines).
    pub score_secs: f64,
}

/// The full evaluation: one entry per benchmark circuit.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-circuit results.
    pub circuits: Vec<CircuitEval>,
    /// The settings that produced this evaluation.
    pub settings: EvalSettings,
    /// Wall-clock timings of this run.
    pub timing: EvalTiming,
}

/// Trains the three models used by [`run_evaluation`] — one per reward
/// function — on the given suite.
pub fn train_models(suite: &[QuantumCircuit], settings: &EvalSettings) -> Vec<TrainedPredictor> {
    RewardKind::ALL
        .iter()
        .map(|&reward| {
            let mut config = PredictorConfig::new(reward, settings.timesteps);
            config.seed = settings.seed;
            config.step_penalty = settings.step_penalty;
            if settings.verbose {
                eprintln!("training model for objective `{reward}`…");
            }
            let mut last_report = 0usize;
            train_with_progress(suite.to_vec(), &config, |stats| {
                if settings.verbose && stats.timesteps >= last_report + 2000 {
                    last_report = stats.timesteps;
                    eprintln!(
                        "  {} steps, mean episode reward {:.3}",
                        stats.timesteps, stats.mean_episode_reward
                    );
                }
            })
        })
        .collect()
}

/// Scores every circuit of the suite under the three RL models and both
/// baselines.
///
/// Each circuit is an independent task with a [`task_seed`]-derived
/// seed, so the `parallel` (rayon) and serial paths produce identical
/// results — the parallel path only changes wall-clock time.
pub fn score_suite(
    suite: &[QuantumCircuit],
    models: &[TrainedPredictor],
    device: &Device,
    master_seed: u64,
    parallel: bool,
) -> Vec<CircuitEval> {
    let score = |(i, qc): (usize, &QuantumCircuit)| {
        evaluate_circuit(qc, models, device, task_seed(master_seed, i as u64))
    };
    if parallel {
        let indexed: Vec<(usize, &QuantumCircuit)> = suite.iter().enumerate().collect();
        indexed.par_iter().map(|&item| score(item)).collect()
    } else {
        suite.iter().enumerate().map(score).collect()
    }
}

/// Trains the three models (one per reward function) and evaluates them
/// plus both baselines on the whole suite.
pub fn run_evaluation(settings: &EvalSettings) -> Evaluation {
    let suite = paper_suite(2, settings.max_qubits);
    if settings.verbose {
        eprintln!(
            "suite: {} circuits (2–{} qubits) | training 3 models × {} steps",
            suite.len(),
            settings.max_qubits,
            settings.timesteps
        );
    }
    let train_start = std::time::Instant::now();
    let models = train_models(&suite, settings);
    let train_secs = train_start.elapsed().as_secs_f64();

    let device = Device::get(settings.device);
    let score_start = std::time::Instant::now();
    let circuits = score_suite(&suite, &models, &device, settings.seed, settings.parallel);
    let score_secs = score_start.elapsed().as_secs_f64();
    Evaluation {
        circuits,
        settings: settings.clone(),
        timing: EvalTiming {
            train_secs,
            score_secs,
        },
    }
}

fn evaluate_circuit(
    qc: &QuantumCircuit,
    models: &[TrainedPredictor],
    device: &Device,
    seed: u64,
) -> CircuitEval {
    let (family_name, qubits_str) = qc.name().rsplit_once('_').expect("name format");
    let family = qrc_benchgen::family_by_name(family_name).expect("known family");
    let qubits: u32 = qubits_str.parse().expect("width suffix");

    let mut rl = [[0.0; 3]; 3];
    for (i, model) in models.iter().enumerate() {
        // One greedy rollout per model; score the same result under all
        // three metrics. `evaluate` scores a circuit that is not
        // executable on its device 0, so every rollout that reached
        // *Done* is scored, even one whose own reward is 0.
        let outcome = model.compile(qc);
        if let Some(d) = outcome.device.map(Device::get) {
            for (j, &metric) in RewardKind::ALL.iter().enumerate() {
                rl[i][j] = metric.evaluate(&outcome.circuit, &d);
            }
        }
    }
    let score_baseline = |b: Baseline| -> MetricTriple {
        match b.compile(qc, device.id(), seed) {
            Ok(compiled) => {
                let mut t = [0.0; 3];
                for (j, &metric) in RewardKind::ALL.iter().enumerate() {
                    t[j] = metric.evaluate(&compiled, device);
                }
                t
            }
            Err(_) => [0.0; 3],
        }
    };
    CircuitEval {
        name: qc.name().to_string(),
        family,
        qubits,
        rl,
        qiskit: score_baseline(Baseline::QiskitO3),
        tket: score_baseline(Baseline::TketO2),
    }
}

// ---------------------------------------------------------------------
// Figure/table extraction
// ---------------------------------------------------------------------

/// Which baseline a figure compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Against the Qiskit-O3-like flow.
    Qiskit,
    /// Against the TKET-O2-like flow.
    Tket,
}

impl Compare {
    fn score(self, eval: &CircuitEval, metric: usize) -> f64 {
        match self {
            Compare::Qiskit => eval.qiskit[metric],
            Compare::Tket => eval.tket[metric],
        }
    }
}

/// The reward differences underlying Fig. 3a/b/c for one metric: the RL
/// model trained for `metric` minus the baseline, per circuit.
pub fn reward_differences(
    eval: &Evaluation,
    metric: RewardKind,
    against: Compare,
) -> Vec<(String, f64)> {
    let m = metric_index(metric);
    eval.circuits
        .iter()
        .map(|c| (c.name.clone(), c.rl[m][m] - against.score(c, m)))
        .collect()
}

/// One histogram bin of a Fig. 3a–c plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Center of the bin.
    pub center: f64,
    /// Relative frequency (sums to 1 over all bins).
    pub frequency: f64,
}

/// Bins reward differences as in Fig. 3a–c (relative frequencies).
pub fn histogram(diffs: &[f64], bin_width: f64, lo: f64, hi: f64) -> Vec<HistogramBin> {
    assert!(bin_width > 0.0 && hi > lo, "invalid histogram spec");
    let bins = ((hi - lo) / bin_width).ceil() as usize;
    let mut counts = vec![0usize; bins];
    for &d in diffs {
        let idx = (((d - lo) / bin_width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        counts[idx] += 1;
    }
    let total = diffs.len().max(1) as f64;
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| HistogramBin {
            center: lo + (i as f64 + 0.5) * bin_width,
            frequency: c as f64 / total,
        })
        .collect()
}

/// Per-family mean reward difference (Fig. 3d/e/f):
/// `(family, mean vs Qiskit, mean vs TKET)`.
pub fn per_family_means(eval: &Evaluation, metric: RewardKind) -> Vec<(BenchmarkFamily, f64, f64)> {
    let m = metric_index(metric);
    BenchmarkFamily::ALL
        .iter()
        .map(|&family| {
            let rows: Vec<&CircuitEval> = eval
                .circuits
                .iter()
                .filter(|c| c.family == family)
                .collect();
            let n = rows.len().max(1) as f64;
            let dq: f64 = rows.iter().map(|c| c.rl[m][m] - c.qiskit[m]).sum::<f64>() / n;
            let dt: f64 = rows.iter().map(|c| c.rl[m][m] - c.tket[m]).sum::<f64>() / n;
            (family, dq, dt)
        })
        .collect()
}

/// Table I: `table[i][j]` = average score under metric `j` of the model
/// trained for metric `i`.
#[allow(clippy::needless_range_loop)] // 3x3 fixed-index accumulation.
pub fn table1(eval: &Evaluation) -> [[f64; 3]; 3] {
    let mut out = [[0.0; 3]; 3];
    let n = eval.circuits.len().max(1) as f64;
    for c in &eval.circuits {
        for i in 0..3 {
            for j in 0..3 {
                out[i][j] += c.rl[i][j] / n;
            }
        }
    }
    out
}

/// The §IV-B headline numbers for one metric/baseline pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryLine {
    /// Fraction of circuits where the RL result is ≥ the baseline.
    pub wins_or_ties: f64,
    /// Mean absolute reward improvement over the baseline.
    pub mean_improvement: f64,
}

/// Computes the headline comparison for a metric against one baseline.
pub fn summary(eval: &Evaluation, metric: RewardKind, against: Compare) -> SummaryLine {
    let diffs: Vec<f64> = reward_differences(eval, metric, against)
        .into_iter()
        .map(|(_, d)| d)
        .collect();
    let n = diffs.len().max(1) as f64;
    SummaryLine {
        wins_or_ties: diffs.iter().filter(|d| **d >= -1e-9).count() as f64 / n,
        mean_improvement: diffs.iter().sum::<f64>() / n,
    }
}

// ---------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------

/// Renders a histogram as an ASCII bar chart (one row per bin).
pub fn render_histogram(bins: &[HistogramBin]) -> String {
    let max = bins
        .iter()
        .map(|b| b.frequency)
        .fold(0.0, f64::max)
        .max(1e-9);
    let mut out = String::new();
    for b in bins {
        let width = (b.frequency / max * 48.0).round() as usize;
        out.push_str(&format!(
            "{:>7.2} | {:<48} {:.3}\n",
            b.center,
            "#".repeat(width),
            b.frequency
        ));
    }
    out
}

/// Renders Table I with headers.
pub fn render_table1(table: &[[f64; 3]; 3]) -> String {
    let mut out = String::new();
    out.push_str("model trained for…   |  fidelity  crit.depth  combination\n");
    out.push_str("---------------------+--------------------------------------\n");
    for (i, kind) in RewardKind::ALL.iter().enumerate() {
        out.push_str(&format!(
            "{:<21}|  {:>8.2}  {:>10.2}  {:>11.2}\n",
            kind.name(),
            table[i][0],
            table[i][1],
            table[i][2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_eval() -> Evaluation {
        // Hand-built evaluation with known numbers.
        let mk =
            |family: BenchmarkFamily, qubits: u32, rl: f64, qiskit: f64, tket: f64| CircuitEval {
                name: format!("{}_{qubits}", family.name()),
                family,
                qubits,
                rl: [[rl; 3]; 3],
                qiskit: [qiskit; 3],
                tket: [tket; 3],
            };
        Evaluation {
            circuits: vec![
                mk(BenchmarkFamily::Ghz, 3, 0.9, 0.8, 0.7),
                mk(BenchmarkFamily::Ghz, 4, 0.6, 0.8, 0.5),
                mk(BenchmarkFamily::Qft, 3, 0.5, 0.5, 0.5),
            ],
            settings: EvalSettings {
                verbose: false,
                ..EvalSettings::default()
            },
            timing: EvalTiming::default(),
        }
    }

    #[test]
    fn reward_differences_are_signed() {
        let eval = synthetic_eval();
        let d = reward_differences(&eval, RewardKind::ExpectedFidelity, Compare::Qiskit);
        let values: Vec<f64> = d.iter().map(|(_, v)| *v).collect();
        assert!((values[0] - 0.1).abs() < 1e-12);
        assert!((values[1] + 0.2).abs() < 1e-12);
        assert!(values[2].abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_sum_to_one() {
        let bins = histogram(&[-0.3, -0.1, 0.0, 0.1, 0.1, 0.45], 0.1, -0.5, 0.5);
        let total: f64 = bins.iter().map(|b| b.frequency).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Out-of-range values clamp to edge bins.
        let clamped = histogram(&[-9.0, 9.0], 0.1, -0.5, 0.5);
        let total: f64 = clamped.iter().map(|b| b.frequency).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_family_means_group_correctly() {
        let eval = synthetic_eval();
        let rows = per_family_means(&eval, RewardKind::ExpectedFidelity);
        let ghz = rows
            .iter()
            .find(|(f, _, _)| *f == BenchmarkFamily::Ghz)
            .unwrap();
        // (0.1 + (−0.2)) / 2 = −0.05 vs qiskit; (0.2 + 0.1)/2 = 0.15 vs tket.
        assert!((ghz.1 + 0.05).abs() < 1e-12);
        assert!((ghz.2 - 0.15).abs() < 1e-12);
    }

    #[test]
    fn table1_averages() {
        let eval = synthetic_eval();
        let t = table1(&eval);
        let expect = (0.9 + 0.6 + 0.5) / 3.0;
        for row in &t {
            for v in row {
                assert!((v - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn summary_statistics() {
        let eval = synthetic_eval();
        let s = summary(&eval, RewardKind::ExpectedFidelity, Compare::Qiskit);
        assert!((s.wins_or_ties - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_improvement - (0.1 - 0.2 + 0.0) / 3.0).abs() < 1e-12);
        let s = summary(&eval, RewardKind::ExpectedFidelity, Compare::Tket);
        assert!((s.wins_or_ties - 1.0).abs() < 1e-12);
    }

    /// A model of objective `reward` whose policy ignores its input: its
    /// logits rank `platform:ionq` first, `device:ionq_harmony` second
    /// and `synthesize` third, so it compiles every circuit that fits
    /// IonQ Harmony to *Done* in three steps.
    fn ionq_model(reward: RewardKind) -> TrainedPredictor {
        use qrc_predictor::Action;
        use serde_json::Value;
        fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Object(pairs) = value else {
                panic!("`{key}`: not an object")
            };
            &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
        }
        let untrained = qrc_predictor::train(
            vec![BenchmarkFamily::Ghz.generate(2)],
            &PredictorConfig::new(reward, 0),
        );
        let mut checkpoint = serde_json::from_str(&untrained.to_json()).unwrap();
        let Value::Array(layers) = field(field(&mut checkpoint, "agent"), "policy") else {
            panic!("policy: not a layer list")
        };
        let output = layers.last_mut().unwrap();
        let Value::Array(w) = field(output, "w") else {
            panic!("w: not an array")
        };
        w.fill(Value::from(0.0));
        let bias = Action::ALL.map(|action| match action {
            Action::SelectPlatform(qrc_device::Platform::Ionq) => 3.0,
            Action::SelectDevice(DeviceId::IonqHarmony) => 2.0,
            Action::Synthesize => 1.0,
            _ => 0.0,
        });
        *field(output, "b") = Value::Array(bias.map(Value::from).to_vec());
        TrainedPredictor::from_json(&serde_json::to_string(&checkpoint)).unwrap()
    }

    /// Every two-qubit gate of a GHZ chain on an all-to-all device lies
    /// on one path, so the critical-depth reward of the compiled circuit
    /// is 0 although the rollout reached *Done*. Table I still scores that
    /// circuit under the other two metrics: two models that take the same
    /// actions get the same row, whatever objective they were trained for.
    #[test]
    fn a_done_rollout_with_zero_reward_keeps_its_other_scores() {
        let suite: Vec<QuantumCircuit> =
            (2..=5).map(|n| BenchmarkFamily::Ghz.generate(n)).collect();
        let models = RewardKind::ALL.map(ionq_model);
        let device = Device::get(DeviceId::IbmqWashington);
        let (fid, cd) = (
            metric_index(RewardKind::ExpectedFidelity),
            metric_index(RewardKind::CriticalDepth),
        );
        for (qc, eval) in suite
            .iter()
            .zip(score_suite(&suite, &models, &device, 3, false))
        {
            assert_eq!(models[cd].compile(qc).reward, 0.0, "{}", qc.name());
            assert!(eval.rl[cd][fid] > 0.0, "{}: {:?}", qc.name(), eval.rl);
            assert_eq!(eval.rl[cd], eval.rl[fid], "{}", qc.name());
        }
    }

    #[test]
    fn renderers_produce_nonempty_output() {
        let bins = histogram(&[0.0, 0.1, -0.1], 0.1, -0.5, 0.5);
        assert!(render_histogram(&bins).lines().count() == bins.len());
        let t = [[0.48, 0.27, 0.37], [0.18, 0.47, 0.33], [0.45, 0.33, 0.39]];
        let rendered = render_table1(&t);
        assert!(rendered.contains("0.48"));
        assert!(rendered.contains("critical_depth"));
    }
}
