//! Criterion benchmarks for the compilation-pass substrate: the cost of
//! each pass family on representative workloads. These are the
//! performance counterparts of the paper's quality evaluation — the
//! per-action cost determines RL training throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qrc_benchgen::BenchmarkFamily;
use qrc_circuit::QuantumCircuit;
use qrc_circuit::Qubit;
use qrc_device::{Device, DeviceId};
use qrc_passes::kak::{kak_decompose, synthesize_2q};
use qrc_passes::{Pass, PassContext, LAYOUTS, OPTIMIZATIONS, ROUTERS};
use std::time::Duration;

fn routing_benchmarks(c: &mut Criterion) {
    // QFT-8 on montreal, plus QFT at 6 and 10 qubits on the 127-qubit
    // washington: the widths where routing dominates a served miss.
    let cases = [
        (DeviceId::IbmqMontreal, 8),
        (DeviceId::IbmqWashington, 6),
        (DeviceId::IbmqWashington, 10),
    ];
    let mut group = c.benchmark_group("routing");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (dev_id, width) in cases {
        let dev = Device::get(dev_id);
        let qc = BenchmarkFamily::Qft.generate(width);
        // Pre-layout the circuit once.
        let laid = LAYOUTS[2]
            .apply(&qc, &PassContext::for_device(&dev))
            .unwrap()
            .circuit;
        for router in ROUTERS {
            let name = if dev_id == DeviceId::IbmqMontreal {
                router.name().to_string()
            } else {
                format!("{}/{}/qft_{width}", router.name(), dev.name())
            };
            group.bench_function(name, |b| {
                let ctx = PassContext::for_device(&dev).with_seed(7);
                b.iter(|| router.apply(black_box(&laid), &ctx).unwrap());
            });
        }
    }
    group.finish();
}

fn layout_benchmarks(c: &mut Criterion) {
    let dev = Device::get(DeviceId::IbmqWashington);
    let qc = BenchmarkFamily::Qaoa.generate(10);
    let mut group = c.benchmark_group("layout");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for pass in LAYOUTS {
        group.bench_function(pass.name(), |b| {
            let ctx = PassContext::for_device(&dev).with_seed(3);
            b.iter(|| pass.apply(black_box(&qc), &ctx).unwrap());
        });
    }
    group.finish();
}

fn optimization_benchmarks(c: &mut Criterion) {
    let qc = BenchmarkFamily::Su2Random.generate(8);
    let mut group = c.benchmark_group("optimization");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for pass in OPTIMIZATIONS {
        group.bench_function(pass.name(), |b| {
            let ctx = PassContext::device_free();
            b.iter(|| pass.apply(black_box(&qc), &ctx).unwrap());
        });
    }
    group.finish();
}

fn synthesis_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let qc = BenchmarkFamily::Qft.generate(10);
    for dev_id in [
        DeviceId::IbmqMontreal,
        DeviceId::RigettiAspenM2,
        DeviceId::IonqHarmony,
    ] {
        let dev = Device::get(dev_id);
        group.bench_function(format!("basis_translation/{}", dev.name()), |b| {
            let ctx = PassContext::for_device(&dev);
            let pass = qrc_passes::synthesis::BasisTranslator;
            b.iter(|| pass.apply(black_box(&qc), &ctx).unwrap());
        });
    }
    group.finish();
}

fn kak_benchmarks(c: &mut Criterion) {
    // KAK on a generic 2q unitary (the inner loop of ConsolidateBlocks).
    let mut block = QuantumCircuit::new(2);
    block
        .h(0)
        .cx(0, 1)
        .rz(0.7, 1)
        .cx(0, 1)
        .rx(0.3, 0)
        .cx(0, 1)
        .t(1)
        .cx(0, 1);
    let ops: Vec<qrc_circuit::Operation> = block.ops().to_vec();
    let u = qrc_passes::kak::ops_unitary(&ops, Qubit(0), Qubit(1));
    let mut group = c.benchmark_group("kak");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("decompose", |b| {
        b.iter(|| kak_decompose(black_box(&u)).unwrap());
    });
    group.bench_function("synthesize_2q", |b| {
        b.iter(|| synthesize_2q(black_box(&u), Qubit(0), Qubit(1)).unwrap());
    });
    group.finish();
}

fn clifford_benchmarks(c: &mut Criterion) {
    use qrc_passes::clifford::CliffordTableau;
    // A deep Clifford circuit on 8 qubits.
    let mut qc = QuantumCircuit::new(8);
    for i in 0..8u32 {
        qc.h(i);
    }
    for round in 0..6u32 {
        for i in 0..7u32 {
            qc.cx(i, (i + 1 + round) % 8);
        }
        for i in 0..8u32 {
            qc.s(i);
        }
    }
    let mut group = c.benchmark_group("clifford");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("tableau_from_circuit", |b| {
        b.iter(|| CliffordTableau::from_circuit(black_box(&qc)).unwrap());
    });
    let tab = CliffordTableau::from_circuit(&qc).unwrap();
    group.bench_function("synthesize", |b| {
        b.iter(|| black_box(&tab).synthesize());
    });
    group.finish();
}

criterion_group!(
    benches,
    routing_benchmarks,
    layout_benchmarks,
    optimization_benchmarks,
    synthesis_benchmarks,
    kak_benchmarks,
    clifford_benchmarks
);
criterion_main!(benches);
