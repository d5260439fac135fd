//! Criterion benchmarks for the text layer of the served path: QASM
//! emission and parsing, the structural hash, request parsing and
//! response rendering. The workload is the miss-ion payload set:
//! `paper_suite(2, 11)` after `BasisTranslator` to ionq, so angles
//! dominate, as they do in served ionq programs. Each bench runs the
//! whole set once per iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qrc_benchgen::paper_suite;
use qrc_circuit::{qasm, QuantumCircuit};
use qrc_device::{Device, DeviceId};
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext};
use qrc_predictor::RewardKind;
use qrc_serve::{
    CacheStatus, CompiledResult, DeviceClass, RouteLevel, ServeRequest, ServeResponse, ShardKey,
    ShardRoute, WidthBand,
};
use std::sync::Arc;
use std::time::Duration;

fn ionq_payloads() -> Vec<QuantumCircuit> {
    let device = Device::get(DeviceId::IonqHarmony);
    let ctx = PassContext::for_device(&device);
    paper_suite(2, 11)
        .iter()
        .map(|qc| BasisTranslator.apply(qc, &ctx).unwrap().circuit)
        .collect()
}

fn text_benchmarks(c: &mut Criterion) {
    let circuits = ionq_payloads();
    let texts: Vec<String> = circuits.iter().map(qasm::to_qasm).collect();
    let request_lines: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            ServeRequest {
                id: Some(format!("req-{i}")),
                objective: RewardKind::CriticalDepth,
                ..ServeRequest::new(text.clone())
            }
            .to_line()
        })
        .collect();
    let responses: Vec<ServeResponse> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| ServeResponse {
            id: Some(format!("req-{i}")),
            result: Ok((
                Arc::new(CompiledResult {
                    qasm: text.clone(),
                    device: Some(DeviceId::IonqHarmony),
                    actions: vec![
                        "platform:ionq".into(),
                        "device:ionq_harmony".into(),
                        "synthesize".into(),
                    ],
                    reward: 0.7341592653589793,
                }),
                CacheStatus::Hit,
            )),
            micros: 31,
            route: Some(ShardRoute {
                shard: ShardKey {
                    objective: RewardKind::CriticalDepth,
                    device_class: DeviceClass::Any,
                    width_band: WidthBand::Any,
                },
                level: RouteLevel::ObjectiveOnly,
            }),
            rid: Some(i as u64 + 1),
        })
        .collect();

    let mut group = c.benchmark_group("text");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("to_qasm", |b| {
        b.iter(|| {
            circuits
                .iter()
                .map(|qc| qasm::to_qasm(black_box(qc)).len())
                .sum::<usize>()
        });
    });
    group.bench_function("from_qasm", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|text| qasm::from_qasm(black_box(text)).unwrap().len())
                .sum::<usize>()
        });
    });
    group.bench_function("structural_hash", |b| {
        b.iter(|| {
            circuits
                .iter()
                .fold(0u64, |acc, qc| acc ^ black_box(qc).structural_hash())
        });
    });
    group.bench_function("request_parse", |b| {
        b.iter(|| {
            request_lines
                .iter()
                .map(|line| ServeRequest::parse(black_box(line)).unwrap().qasm.len())
                .sum::<usize>()
        });
    });
    group.bench_function("response_to_line", |b| {
        b.iter(|| {
            responses
                .iter()
                .map(|response| black_box(response).to_line().len())
                .sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(benches, text_benchmarks);
criterion_main!(benches);
