//! Property-based tests: every optimization pass must preserve circuit
//! semantics on arbitrary circuits, and the device-targeted flows must
//! produce executable circuits.

use proptest::prelude::*;
use qrc_circuit::strategies::small_gate_circuit;
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext, WireEffect, LAYOUTS, OPTIMIZATIONS, ROUTERS};
use qrc_sim::equiv::{mapped_circuit_equivalent, measurement_equivalent};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every optimization pass preserves the measurement distribution
    /// (the unitary may legally change for diagonal-before-measure
    /// rewrites, so distribution equality is the right invariant).
    #[test]
    fn optimization_passes_preserve_distribution(qc in small_gate_circuit(1..=5, 24)) {
        let ctx = PassContext::device_free();
        for pass in OPTIMIZATIONS {
            let out = pass.apply(&qc, &ctx)
                .unwrap_or_else(|e| panic!("{} failed: {e}", pass.name()));
            prop_assert!(
                measurement_equivalent(&qc, &out.circuit, 1e-6).unwrap(),
                "{} changed the distribution", pass.name()
            );
        }
    }

    /// Optimization passes never increase the two-qubit gate count, and
    /// only increase the total count when they strictly reduced the
    /// (far more expensive) two-qubit count.
    #[test]
    fn optimization_passes_never_grow_circuits(qc in small_gate_circuit(1..=5, 24)) {
        let ctx = PassContext::device_free();
        for pass in OPTIMIZATIONS {
            let out = pass.apply(&qc, &ctx).unwrap();
            let (in_2q, out_2q) = (qc.num_two_qubit_gates(), out.circuit.num_two_qubit_gates());
            prop_assert!(
                out_2q <= in_2q,
                "{} grew 2q count {} -> {}", pass.name(), in_2q, out_2q
            );
            prop_assert!(
                out_2q < in_2q || out.circuit.len() <= qc.len(),
                "{} grew total {} -> {} without 2q gain",
                pass.name(), qc.len(), out.circuit.len()
            );
        }
    }

    /// Basis translation always yields native gates and preserves the
    /// distribution, on every platform.
    #[test]
    fn basis_translation_full_property(qc in small_gate_circuit(1..=4, 12)) {
        for dev in Device::all() {
            let ctx = PassContext::for_device(&dev);
            let out = BasisTranslator.apply(&qc, &ctx).unwrap();
            prop_assert!(dev.check_native_gates(&out.circuit), "{}", dev.name());
            prop_assert!(
                measurement_equivalent(&qc, &out.circuit, 1e-6).unwrap(),
                "{} translation changed semantics", dev.name()
            );
        }
    }

    /// Full pipeline: layout + routing yields connectivity-valid circuits
    /// that are layout-equivalent to the original.
    #[test]
    fn layout_then_routing_is_sound(qc in small_gate_circuit(2..=5, 14)) {
        let dev = Device::get(DeviceId::OqcLucy);
        let ctx = PassContext::for_device(&dev).with_seed(17);
        for layout_pass in LAYOUTS {
            let laid = layout_pass.apply(&qc, &ctx).unwrap();
            let WireEffect::SetLayout(layout) = laid.effect else { panic!() };
            for routing_pass in ROUTERS {
                let routed = routing_pass.apply(&laid.circuit, &ctx).unwrap();
                prop_assert!(
                    dev.check_connectivity(&routed.circuit),
                    "{}+{} violated coupling",
                    layout_pass.name(), routing_pass.name()
                );
                let WireEffect::Permute(perm) = &routed.effect else { panic!() };
                let initial: Vec<qrc_circuit::Qubit> =
                    layout.iter().map(|&p| qrc_circuit::Qubit(p)).collect();
                let final_: Vec<qrc_circuit::Qubit> = layout
                    .iter()
                    .map(|&p| qrc_circuit::Qubit(perm[p as usize]))
                    .collect();
                let mut rng = StdRng::seed_from_u64(5);
                prop_assert!(
                    mapped_circuit_equivalent(
                        &qc, &routed.circuit, &initial, &final_, 2, 1e-6, &mut rng
                    ).unwrap(),
                    "{}+{} broke the circuit",
                    layout_pass.name(), routing_pass.name()
                );
            }
        }
    }

    /// Pass application is deterministic for a fixed seed.
    #[test]
    fn passes_are_deterministic(qc in small_gate_circuit(1..=4, 16)) {
        let ctx = PassContext::device_free().with_seed(3);
        for pass in OPTIMIZATIONS {
            let a = pass.apply(&qc, &ctx).unwrap();
            let b = pass.apply(&qc, &ctx).unwrap();
            prop_assert_eq!(a.circuit, b.circuit, "{} nondeterministic", pass.name());
        }
    }
}

/// Idempotence check on a fixed workload (full proptest would be slow).
#[test]
fn optimization_passes_idempotent_on_sample() {
    let mut qc = QuantumCircuit::new(4);
    qc.h(0)
        .cx(0, 1)
        .cx(0, 1)
        .t(1)
        .tdg(1)
        .rz(0.4, 2)
        .rz(0.3, 2)
        .swap(2, 3)
        .cz(0, 3)
        .measure_all();
    let ctx = PassContext::device_free();
    for pass in OPTIMIZATIONS {
        let once = pass.apply(&qc, &ctx).unwrap().circuit;
        let twice = pass.apply(&once, &ctx).unwrap().circuit;
        assert_eq!(once, twice, "{} not idempotent", pass.name());
    }
}
