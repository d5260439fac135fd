//! Criterion benchmarks for the circuit analysis behind every rollout
//! tick and every reward: `FeatureVector::of` (the observation),
//! `metrics::critical_depth`, and `RewardKind::evaluate` for each
//! objective. Two circuit sets, each run whole once per iteration:
//!
//! * `ion`: the miss-ion payloads, `paper_suite(2, 11)` after
//!   `BasisTranslator` to `ionq_harmony` (the set the `text` group uses);
//! * `washington`: `paper_suite(6, 10)` after `BasisTranslator`,
//!   `TrivialLayout` and `StochasticSwap` (seed 0) on `ibmq_washington`,
//!   127 wires wide, the circuits a wide miss observes. A second
//!   `BasisTranslator` lowers the inserted swaps, so every circuit is
//!   executable and `evaluate` scores it instead of returning 0 early.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qrc_benchgen::paper_suite;
use qrc_circuit::{metrics, FeatureVector, QuantumCircuit};
use qrc_device::{Device, DeviceId};
use qrc_passes::layout::TrivialLayout;
use qrc_passes::routing::StochasticSwap;
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext};
use qrc_predictor::RewardKind;
use std::time::Duration;

/// `suite` through `passes` in order on `device`, each with seed 0.
fn compiled(
    suite: Vec<QuantumCircuit>,
    device: &Device,
    passes: &[&dyn Pass],
) -> Vec<QuantumCircuit> {
    let ctx = PassContext::for_device(device).with_seed(0);
    let circuits: Vec<QuantumCircuit> = suite
        .iter()
        .map(|qc| {
            passes.iter().fold(qc.clone(), |qc, pass| {
                pass.apply(&qc, &ctx).expect("the suite compiles").circuit
            })
        })
        .collect();
    assert!(
        circuits.iter().all(|qc| device.check_executable(qc)),
        "every circuit must be executable on {}",
        device.name()
    );
    circuits
}

fn analysis_benchmarks(c: &mut Criterion) {
    let ionq = Device::get(DeviceId::IonqHarmony);
    let washington = Device::get(DeviceId::IbmqWashington);
    let sets = [
        (
            "ion",
            &ionq,
            compiled(paper_suite(2, 11), &ionq, &[&BasisTranslator]),
        ),
        (
            "washington",
            &washington,
            compiled(
                paper_suite(6, 10),
                &washington,
                &[
                    &BasisTranslator,
                    &TrivialLayout,
                    &StochasticSwap,
                    &BasisTranslator,
                ],
            ),
        ),
    ];

    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (name, device, circuits) in &sets {
        group.bench_function(format!("features/{name}"), |b| {
            b.iter(|| {
                circuits
                    .iter()
                    .map(|qc| FeatureVector::of(black_box(qc)).liveness)
                    .sum::<f64>()
            });
        });
        group.bench_function(format!("critical_depth/{name}"), |b| {
            b.iter(|| {
                circuits
                    .iter()
                    .map(|qc| metrics::critical_depth(black_box(qc)))
                    .sum::<f64>()
            });
        });
        for kind in RewardKind::ALL {
            group.bench_function(format!("evaluate_{}/{name}", kind.name()), |b| {
                b.iter(|| {
                    circuits
                        .iter()
                        .map(|qc| kind.evaluate(black_box(qc), device))
                        .sum::<f64>()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, analysis_benchmarks);
criterion_main!(benches);
