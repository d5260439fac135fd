//! Pass playground: watch each compilation pass transform a circuit.
//!
//! Demonstrates the paper's "unified interface" property — every action,
//! whether it came from Qiskit or TKET, is a circuit-to-circuit function
//! that can be freely chained.
//!
//! Run with: `cargo run --release --example pass_playground`

use mqt_predictor::passes::{PassContext, OPTIMIZATIONS};
use mqt_predictor::prelude::*;
use mqt_predictor::sim::equiv::measurement_equivalent;

fn main() {
    // A deliberately redundant circuit: QFT-4 followed by its inverse,
    // plus some noise-y leftovers.
    let qft = BenchmarkFamily::Qft.generate(4);
    let mut unitary_part = qft.clone();
    unitary_part.retain(|op| op.gate.is_unitary());
    let mut circuit = unitary_part.clone();
    circuit
        .extend_from(&unitary_part.inverse().expect("unitary circuit"))
        .unwrap();
    circuit.h(0).h(0).t(1).tdg(1).cx(2, 3).cx(2, 3);
    circuit.measure_all();
    println!(
        "Input: QFT-4 · QFT-4⁻¹ · (cancelling pairs) = {} gates ({} 2q)\n",
        circuit.num_gates(),
        circuit.num_two_qubit_gates()
    );

    // Run every optimization action on the same input and compare.
    let ctx = PassContext::device_free();
    println!("{:<40} {:>6} {:>6}  semantics", "pass", "gates", "2q");
    println!("{}", "-".repeat(68));
    for pass in OPTIMIZATIONS {
        let out = pass.apply(&circuit, &ctx).expect("pass application");
        let ok = measurement_equivalent(&circuit, &out.circuit, 1e-7).unwrap();
        println!(
            "{:<40} {:>6} {:>6}  {}",
            pass.name(),
            out.circuit.num_gates(),
            out.circuit.num_two_qubit_gates(),
            if ok { "preserved" } else { "CHANGED (bug!)" },
        );
    }

    // Chain the heavy hitters, as the RL agent might.
    println!("\nChaining FullPeepholeOptimise → RemoveRedundancies:");
    let mut current = circuit.clone();
    for pass in OPTIMIZATIONS
        .into_iter()
        .filter(|p| matches!(p.name(), "FullPeepholeOptimise" | "RemoveRedundancies"))
    {
        current = pass.apply(&current, &ctx).unwrap().circuit;
        println!(
            "  after {:<25} {:>5} gates ({} 2q)",
            pass.name(),
            current.num_gates(),
            current.num_two_qubit_gates()
        );
    }
    assert!(measurement_equivalent(&circuit, &current, 1e-7).unwrap());
    println!("\nFinal circuit is measurement-equivalent to the input.");
}
