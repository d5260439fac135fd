//! Criterion benchmarks for the evaluation pipeline itself — one bench
//! per paper artifact, measuring the cost of regenerating each figure's
//! data from a *pre-trained* model (training time is excluded; it is the
//! `evaluate` binary's job and is reported in EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qrc_benchgen::BenchmarkFamily;
use qrc_device::DeviceId;
use qrc_predictor::{
    train, Action, Baseline, PredictorConfig, RewardKind, TrainedPredictor, OBS_DIM,
};
use qrc_rl::{Adam, Mlp, PpoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn tiny_model(reward: RewardKind) -> TrainedPredictor {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(4),
        BenchmarkFamily::Qft.generate(4),
        BenchmarkFamily::WState.generate(4),
    ];
    let config = PredictorConfig {
        reward,
        total_timesteps: 1024,
        ppo: PpoConfig {
            steps_per_update: 128,
            hidden: vec![32],
            ..PpoConfig::default()
        },
        seed: 1,
        step_penalty: 0.0,
    };
    train(suite, &config)
}

/// Fig. 3a–c inner loop: one RL compile + both baselines on one circuit,
/// scored under the respective metric.
fn fig3_histogram_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_histograms");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let qc = BenchmarkFamily::Qaoa.generate(5);
    for (metric, label) in [
        (RewardKind::ExpectedFidelity, "fig3a_fidelity"),
        (RewardKind::CriticalDepth, "fig3b_critical_depth"),
        (RewardKind::Combination, "fig3c_combination"),
    ] {
        let model = tiny_model(metric);
        group.bench_function(label, |b| {
            b.iter(|| {
                let rl = model.compile(black_box(&qc)).reward;
                let qk = Baseline::QiskitO3
                    .compile(black_box(&qc), DeviceId::IbmqWashington, 3)
                    .map(|out| {
                        metric.evaluate(&out, &qrc_device::Device::get(DeviceId::IbmqWashington))
                    })
                    .unwrap_or(0.0);
                let tk = Baseline::TketO2
                    .compile(black_box(&qc), DeviceId::IbmqWashington, 3)
                    .map(|out| {
                        metric.evaluate(&out, &qrc_device::Device::get(DeviceId::IbmqWashington))
                    })
                    .unwrap_or(0.0);
                (rl - qk, rl - tk)
            });
        });
    }
    group.finish();
}

/// Fig. 3d–f inner loop: per-family aggregation over one family's sizes.
fn fig3_family_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_per_family");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let model = tiny_model(RewardKind::ExpectedFidelity);
    for (family, label) in [
        (BenchmarkFamily::Ghz, "fig3d_ghz_row"),
        (BenchmarkFamily::Qft, "fig3e_qft_row"),
        (BenchmarkFamily::Vqe, "fig3f_vqe_row"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for n in 3..=5 {
                    let qc = family.generate(n);
                    acc += model.compile(black_box(&qc)).reward;
                }
                acc
            });
        });
    }
    group.finish();
}

/// Table I inner loop: cross-scoring one model under all three metrics.
fn table1_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let model = tiny_model(RewardKind::ExpectedFidelity);
    let qc = BenchmarkFamily::GraphState.generate(5);
    group.bench_function("cross_evaluation_row", |b| {
        b.iter(|| {
            let mut row = [0.0; 3];
            for (j, metric) in RewardKind::ALL.iter().enumerate() {
                row[j] = model.compile_scored(black_box(&qc), *metric).reward;
            }
            row
        });
    });
    group.finish();
}

/// PPO training throughput: environment steps per second on the
/// compilation MDP (determines the wall-clock of the paper's 100k-step
/// training runs).
fn training_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("ppo_512_env_steps", |b| {
        b.iter(|| {
            let suite = vec![
                BenchmarkFamily::Ghz.generate(4),
                BenchmarkFamily::Dj.generate(4),
            ];
            let config = PredictorConfig {
                reward: RewardKind::ExpectedFidelity,
                total_timesteps: 512,
                ppo: PpoConfig {
                    steps_per_update: 128,
                    hidden: vec![32],
                    ..PpoConfig::default()
                },
                seed: 9,
                step_penalty: 0.0,
            };
            train(black_box(suite), &config)
        });
    });
    group.finish();
}

/// The network kernel on the served policy shape (18 → 64 → 64 → 29):
/// `Mlp::forward_batch` at 1, 16 and 64 rows, and one 64-row PPO
/// minibatch step over the policy and a value network of the same
/// hidden widths (batched forward, batched backward, gradient-norm
/// clip, Adam step).
fn nn_kernel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let policy = Mlp::new(OBS_DIM, &[64, 64], Action::COUNT, &mut rng);
    let value = Mlp::new(OBS_DIM, &[64, 64], 1, &mut rng);
    let rows = |n: usize, width: usize, rng: &mut StdRng| -> Vec<f64> {
        (0..n * width).map(|_| rng.gen_range(-1.0..1.0)).collect()
    };
    let mut group = c.benchmark_group("nn");
    for n in [1usize, 16, 64] {
        let xs: Vec<Vec<f64>> = rows(n, OBS_DIM, &mut rng)
            .chunks(OBS_DIM)
            .map(<[f64]>::to_vec)
            .collect();
        group.bench_function(format!("forward_batch/{n}_rows"), |b| {
            b.iter(|| policy.forward_batch(black_box(&xs)))
        });
    }
    let xs = rows(64, OBS_DIM, &mut rng);
    let dlogits: Vec<f64> = rows(64, Action::COUNT, &mut rng)
        .iter()
        .map(|g| g / 64.0)
        .collect();
    let dvalues: Vec<f64> = rows(64, 1, &mut rng).iter().map(|g| g / 64.0).collect();
    let adam_policy = Adam::new(&policy, 3e-4);
    let adam_value = Adam::new(&value, 3e-4);
    group.bench_function("minibatch_step/64_rows", |b| {
        b.iter(|| {
            let (mut policy, mut value) = (policy.clone(), value.clone());
            let (mut adam_policy, mut adam_value) = (adam_policy.clone(), adam_value.clone());
            for (net, adam, dout) in [
                (&mut policy, &mut adam_policy, &dlogits),
                (&mut value, &mut adam_value, &dvalues),
            ] {
                let acts = net.forward_minibatch(black_box(&xs), 64);
                let mut grads = net.backward_minibatch(&acts, dout);
                let norm = grads.norm();
                if norm > 0.5 {
                    grads.scale(0.5 / norm);
                }
                adam.step(net, &grads);
            }
            (policy, value)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    fig3_histogram_point,
    fig3_family_row,
    table1_cell,
    training_throughput,
    nn_kernel
);
criterion_main!(benches);
