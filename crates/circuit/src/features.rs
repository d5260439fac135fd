//! Observation features for the reinforcement-learning agent.
//!
//! The paper (Sec. IV-A) uses seven features: the number of qubits, the
//! circuit depth, and the five composite SupermarQ features of Tomesh et
//! al. (*SupermarQ: A Scalable Quantum Benchmark Suite*, 2022): program
//! communication, critical depth, entanglement ratio, parallelism, and
//! liveness. All five composites are normalized to `[0, 1]`; qubit count
//! and depth are squashed to `[0, 1)` so observations stay well-scaled for
//! the policy network.

use crate::circuit::QuantumCircuit;
use crate::gate::Gate;
use crate::metrics::{self, AsapScan};

/// Number of entries in a [`FeatureVector`].
pub const NUM_FEATURES: usize = 7;

/// The seven observation features of a circuit.
///
/// # Examples
///
/// ```
/// use qrc_circuit::{QuantumCircuit, FeatureVector};
///
/// let mut ghz = QuantumCircuit::new(4);
/// ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// let f = FeatureVector::of(&ghz);
/// assert_eq!(f.critical_depth, 1.0); // fully serial entangling chain
/// assert!(f.program_communication > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureVector {
    /// Qubit count squashed to `[0, 1)` via `n / (n + 32)`.
    pub num_qubits: f64,
    /// Depth squashed to `[0, 1)` via `d / (d + 256)`.
    pub depth: f64,
    /// Average normalized degree of the qubit interaction graph.
    pub program_communication: f64,
    /// Fraction of two-qubit gates on the critical path.
    pub critical_depth: f64,
    /// Fraction of operations that are two-qubit gates.
    pub entanglement_ratio: f64,
    /// How evenly gates spread across layers:
    /// `(n_gates / depth − 1) / (n_qubits − 1)`.
    pub parallelism: f64,
    /// Average fraction of the schedule in which each qubit is active.
    pub liveness: f64,
}

impl FeatureVector {
    /// Extracts all seven features from `circuit`.
    pub fn of(circuit: &QuantumCircuit) -> Self {
        let n = circuit.num_qubits() as f64;
        let scan = AsapScan::of(circuit);
        let depth = scan.depth;

        // Unitary-gate statistics (directives excluded).
        let num_gates = scan.num_gates;
        let num_2q = scan.num_two_qubit_gates;

        let program_communication = if n >= 2.0 {
            let degrees = metrics::interaction_degrees(circuit);
            let sum: usize = degrees.iter().sum();
            sum as f64 / (n * (n - 1.0))
        } else {
            0.0
        };

        let critical_depth = metrics::critical_depth(circuit);

        let entanglement_ratio = if num_gates > 0 {
            num_2q as f64 / num_gates as f64
        } else {
            0.0
        };

        let parallelism = if n >= 2.0 && depth > 0 {
            (((num_gates as f64) / depth as f64 - 1.0) / (n - 1.0)).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let liveness = if depth > 0 && n >= 1.0 {
            // A qubit is live in a layer if some op in that layer touches it.
            scan.live_pairs as f64 / (n * depth as f64)
        } else {
            0.0
        };

        FeatureVector {
            num_qubits: n / (n + 32.0),
            depth: depth as f64 / (depth as f64 + 256.0),
            program_communication,
            critical_depth,
            entanglement_ratio,
            parallelism,
            liveness,
        }
    }

    /// The features as a fixed-order array (policy-network input layout).
    pub fn to_array(self) -> [f64; NUM_FEATURES] {
        [
            self.num_qubits,
            self.depth,
            self.program_communication,
            self.critical_depth,
            self.entanglement_ratio,
            self.parallelism,
            self.liveness,
        ]
    }

    /// Returns `true` if every entry lies in `[0, 1]`.
    pub fn is_normalized(self) -> bool {
        self.to_array().iter().all(|&v| (0.0..=1.0).contains(&v))
    }
}

/// Returns `true` if `gate` contributes to entanglement statistics
/// (a unitary on ≥ 2 qubits).
pub fn is_entangling(gate: Gate) -> bool {
    gate.is_unitary() && gate.num_qubits() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_circuit_features_are_zeroish() {
        let qc = QuantumCircuit::new(4);
        let f = FeatureVector::of(&qc);
        assert_eq!(f.depth, 0.0);
        assert_eq!(f.program_communication, 0.0);
        assert_eq!(f.critical_depth, 0.0);
        assert_eq!(f.entanglement_ratio, 0.0);
        assert_eq!(f.parallelism, 0.0);
        assert_eq!(f.liveness, 0.0);
        assert!(f.is_normalized());
    }

    #[test]
    fn fully_parallel_single_qubit_circuit() {
        let mut qc = QuantumCircuit::new(4);
        qc.h(0).h(1).h(2).h(3);
        let f = FeatureVector::of(&qc);
        // 4 gates in 1 layer on 4 qubits: maximal parallelism & liveness.
        assert!((f.parallelism - 1.0).abs() < 1e-12);
        assert!((f.liveness - 1.0).abs() < 1e-12);
        assert_eq!(f.entanglement_ratio, 0.0);
    }

    #[test]
    fn serial_circuit_has_low_parallelism_and_liveness() {
        let mut qc = QuantumCircuit::new(4);
        qc.t(0).t(0).t(0).t(0);
        let f = FeatureVector::of(&qc);
        assert_eq!(f.parallelism, 0.0);
        assert!((f.liveness - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_to_all_interaction_maximizes_communication() {
        let n = 4;
        let mut qc = QuantumCircuit::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                qc.cz(a, b);
            }
        }
        let f = FeatureVector::of(&qc);
        assert!((f.program_communication - 1.0).abs() < 1e-12);
        assert!((f.entanglement_ratio - 1.0).abs() < 1e-12);
        assert!(f.is_normalized());
    }

    #[test]
    fn features_fit_in_unit_interval_for_typical_circuits() {
        let mut qc = QuantumCircuit::new(5);
        qc.h(0).cx(0, 1).t(1).cx(1, 2).cx(2, 3).rz(0.3, 3).cx(3, 4);
        qc.measure_all();
        let f = FeatureVector::of(&qc);
        assert!(f.is_normalized(), "features out of range: {f:?}");
    }

    #[test]
    fn to_array_order_is_stable() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1);
        let f = FeatureVector::of(&qc);
        let arr = f.to_array();
        assert_eq!(arr[0], f.num_qubits);
        assert_eq!(arr[3], f.critical_depth);
        assert_eq!(arr[6], f.liveness);
    }

    #[test]
    fn is_entangling_classification() {
        assert!(is_entangling(Gate::Cx));
        assert!(is_entangling(Gate::Ccx));
        assert!(!is_entangling(Gate::H));
        assert!(!is_entangling(Gate::Measure));
    }
}
