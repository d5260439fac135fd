//! The linear-scan circuit analysis against the DAG analysis it replaced.
//!
//! `dag` keeps `CircuitDag` (per-op predecessor and successor lists, ASAP
//! levels and layers, one critical path) with its unit tests, and
//! `oracle` keeps the `FeatureVector::of`, `metrics::critical_depth` and
//! `metrics::interaction_degrees` that were built on it. The features
//! pick the policy's actions and the critical depth pays out two of the
//! three rewards, so the library must agree with the oracle bit for bit:
//! every feature and the critical depth by `to_bits`, depth and degrees
//! exactly. A proptest covers random circuits of 1–130 qubits (across the
//! 64- and 128-qubit word boundaries of the degree rows) with
//! measurements and barriers interleaved, and a sweep covers the
//! translated, laid-out and routed circuits of the router identity grid,
//! up to the 127 wires of `ibmq_washington`.

use proptest::prelude::*;
use qrc_benchgen::paper_suite;
use qrc_circuit::{metrics, strategies, FeatureVector, Gate, Operation, QuantumCircuit, Qubit};
use qrc_device::{Device, DeviceId};
use qrc_passes::layout::{SabreLayout, TrivialLayout};
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext, ROUTERS};

mod dag {
    //! Dependency-graph view of a circuit.
    //!
    //! [`CircuitDag`] computes, for every operation, its predecessors and
    //! successors on each qubit wire plus its ASAP (as-soon-as-possible)
    //! schedule level. The levels give the circuit depth, the critical path,
    //! and the per-layer structure used by the SupermarQ feature extraction.

    use qrc_circuit::QuantumCircuit;

    /// Index of an operation within its circuit.
    pub type OpIndex = usize;

    /// Precomputed dependency structure of a [`QuantumCircuit`].
    #[derive(Debug, Clone)]
    pub struct CircuitDag {
        /// For op `i`, the ops that must run directly before it (one per wire,
        /// deduplicated).
        preds: Vec<Vec<OpIndex>>,
        /// For op `i`, the ops that directly depend on it.
        succs: Vec<Vec<OpIndex>>,
        /// ASAP level of each op (0-based).
        level: Vec<usize>,
        /// Ops grouped by ASAP level.
        layers: Vec<Vec<OpIndex>>,
    }

    impl CircuitDag {
        /// Builds the dependency structure of `circuit`.
        pub fn new(circuit: &QuantumCircuit) -> Self {
            let n_ops = circuit.len();
            let mut preds: Vec<Vec<OpIndex>> = vec![Vec::new(); n_ops];
            let mut succs: Vec<Vec<OpIndex>> = vec![Vec::new(); n_ops];
            let mut level: Vec<usize> = vec![0; n_ops];
            let mut last_on_wire: Vec<Option<OpIndex>> = vec![None; circuit.num_qubits() as usize];

            for (i, op) in circuit.iter().enumerate() {
                let mut lvl = 0;
                for q in op.qubits.iter() {
                    if let Some(p) = last_on_wire[q.index()] {
                        if !preds[i].contains(&p) {
                            preds[i].push(p);
                            succs[p].push(i);
                        }
                        lvl = lvl.max(level[p] + 1);
                    }
                }
                level[i] = lvl;
                for q in op.qubits.iter() {
                    last_on_wire[q.index()] = Some(i);
                }
            }

            let max_level = level.iter().copied().max().map_or(0, |m| m + 1);
            let mut layers: Vec<Vec<OpIndex>> = vec![Vec::new(); max_level];
            for (i, &l) in level.iter().enumerate() {
                layers[l].push(i);
            }

            CircuitDag {
                preds,
                succs,
                level,
                layers,
            }
        }

        /// Direct predecessors of op `i`.
        pub fn predecessors(&self, i: OpIndex) -> &[OpIndex] {
            &self.preds[i]
        }

        /// Direct successors of op `i`.
        pub fn successors(&self, i: OpIndex) -> &[OpIndex] {
            &self.succs[i]
        }

        /// ASAP level of op `i` (0-based).
        pub fn level(&self, i: OpIndex) -> usize {
            self.level[i]
        }

        /// Operations grouped by ASAP level.
        pub fn layers(&self) -> &[Vec<OpIndex>] {
            &self.layers
        }

        /// Circuit depth: number of ASAP levels (counting every operation,
        /// including measurements — matching Qiskit's `QuantumCircuit.depth`).
        pub fn depth(&self) -> usize {
            self.layers.len()
        }

        /// One longest (critical) path through the DAG, as op indices in order.
        ///
        /// Returns an empty vector for an empty circuit. Among equal-length
        /// paths an arbitrary but deterministic one is returned.
        pub fn critical_path(&self) -> Vec<OpIndex> {
            if self.level.is_empty() {
                return Vec::new();
            }
            // Longest-to-sink length per node, computed right-to-left
            // (ops are already topologically ordered by construction).
            let n = self.level.len();
            let mut to_sink = vec![0usize; n];
            let mut next = vec![usize::MAX; n];
            for i in (0..n).rev() {
                for &s in &self.succs[i] {
                    if to_sink[s] + 1 > to_sink[i] {
                        to_sink[i] = to_sink[s] + 1;
                        next[i] = s;
                    }
                }
            }
            // Start at the first source (level 0) with the longest path to a
            // sink; ties resolve to the earliest op for determinism.
            let mut start = usize::MAX;
            let mut best = 0;
            for (i, &sink_dist) in to_sink.iter().enumerate() {
                if self.level[i] == 0 && (start == usize::MAX || sink_dist > best) {
                    best = sink_dist;
                    start = i;
                }
            }
            let mut path = vec![start];
            let mut cur = start;
            while next[cur] != usize::MAX {
                cur = next[cur];
                path.push(cur);
            }
            path
        }
    }

    mod tests {
        use super::*;

        #[test]
        fn empty_circuit_has_zero_depth() {
            let qc = QuantumCircuit::new(3);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), 0);
            assert!(dag.critical_path().is_empty());
        }

        #[test]
        fn parallel_gates_share_a_layer() {
            let mut qc = QuantumCircuit::new(4);
            qc.h(0).h(1).h(2).h(3);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), 1);
            assert_eq!(dag.layers()[0].len(), 4);
        }

        #[test]
        fn chain_increases_depth() {
            let mut qc = QuantumCircuit::new(1);
            qc.h(0).t(0).h(0);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), 3);
        }

        #[test]
        fn two_qubit_gate_joins_wires() {
            let mut qc = QuantumCircuit::new(2);
            qc.h(0).cx(0, 1).h(1);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), 3);
            assert_eq!(dag.predecessors(1), &[0]);
            assert_eq!(dag.successors(1), &[2]);
            assert_eq!(dag.level(2), 2);
        }

        #[test]
        fn critical_path_follows_longest_chain() {
            // q0: h        (level 0)
            // q1: h t t t  (levels 0..3)
            let mut qc = QuantumCircuit::new(2);
            qc.h(0).h(1).t(1).t(1).t(1);
            let dag = CircuitDag::new(&qc);
            let path = dag.critical_path();
            assert_eq!(path.len(), 4);
            assert_eq!(path, vec![1, 2, 3, 4]);
        }

        #[test]
        fn ghz_depth_is_linear() {
            let n = 6;
            let mut qc = QuantumCircuit::new(n);
            qc.h(0);
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), n as usize);
            assert_eq!(dag.critical_path().len(), n as usize);
        }

        #[test]
        fn duplicate_predecessor_edges_are_deduplicated() {
            let mut qc = QuantumCircuit::new(2);
            qc.cx(0, 1).cx(0, 1);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.predecessors(1), &[0]);
            assert_eq!(dag.successors(0), &[1]);
        }

        #[test]
        fn layers_hold_the_asap_levels() {
            let mut qc = QuantumCircuit::new(3);
            qc.h(0).h(1).cx(0, 1).cx(1, 2);
            let dag = CircuitDag::new(&qc);
            assert_eq!(dag.depth(), 3); // h — cx — cx
            assert_eq!(dag.layers().len(), 3);
        }
    }
}

mod oracle {
    //! The analysis functions as they stood on top of `CircuitDag`.

    use super::dag::CircuitDag;
    use qrc_circuit::{FeatureVector, QuantumCircuit};

    pub fn critical_depth(circuit: &QuantumCircuit) -> f64 {
        let total_2q = circuit.num_two_qubit_gates();
        if total_2q == 0 {
            return 0.0;
        }
        let dag = CircuitDag::new(circuit);
        let on_path = dag
            .critical_path()
            .into_iter()
            .filter(|&i| circuit.ops()[i].is_two_qubit())
            .count();
        on_path as f64 / total_2q as f64
    }

    pub fn interaction_degrees(circuit: &QuantumCircuit) -> Vec<usize> {
        let n = circuit.num_qubits() as usize;
        let mut neighbors: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n];
        for op in circuit.iter() {
            if !op.is_two_qubit() {
                continue;
            }
            let a = op.qubits[0];
            let b = op.qubits[1];
            neighbors[a.index()].insert(b.0);
            neighbors[b.index()].insert(a.0);
        }
        neighbors.into_iter().map(|s| s.len()).collect()
    }

    pub fn features(circuit: &QuantumCircuit) -> FeatureVector {
        let n = circuit.num_qubits() as f64;
        let dag = CircuitDag::new(circuit);
        let depth = dag.depth();

        let num_gates = circuit.num_gates();
        let num_2q = circuit.num_two_qubit_gates();

        let program_communication = if n >= 2.0 {
            let degrees = interaction_degrees(circuit);
            let sum: usize = degrees.iter().sum();
            sum as f64 / (n * (n - 1.0))
        } else {
            0.0
        };

        let critical_depth = critical_depth(circuit);

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
            let mut live = 0usize;
            for layer in dag.layers() {
                let mut seen = vec![false; circuit.num_qubits() as usize];
                for &i in layer {
                    for q in circuit.ops()[i].qubits.iter() {
                        if !seen[q.index()] {
                            seen[q.index()] = true;
                            live += 1;
                        }
                    }
                }
            }
            live as f64 / (n * depth as f64)
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
}

/// Why `circuit` disagrees with the oracle, or `None` if it agrees.
fn mismatch(circuit: &QuantumCircuit) -> Option<String> {
    let bits = |f: FeatureVector| f.to_array().map(f64::to_bits);
    let got = FeatureVector::of(circuit);
    let want = oracle::features(circuit);
    if bits(got) != bits(want) {
        return Some(format!("features {got:?}, oracle {want:?}"));
    }
    let (got, want) = (
        metrics::critical_depth(circuit),
        oracle::critical_depth(circuit),
    );
    if got.to_bits() != want.to_bits() {
        return Some(format!("critical depth {got}, oracle {want}"));
    }
    let (got, want) = (
        metrics::depth(circuit),
        dag::CircuitDag::new(circuit).depth(),
    );
    if got != want {
        return Some(format!("depth {got}, oracle {want}"));
    }
    let (got, want) = (
        metrics::interaction_degrees(circuit),
        oracle::interaction_degrees(circuit),
    );
    if got != want {
        return Some(format!("degrees {got:?}, oracle {want:?}"));
    }
    None
}

/// Random unitary circuits with measurements and per-qubit barriers
/// interleaved: half of them up to 130 qubits wide, half up to 10 (dense
/// enough that equally long paths are common).
fn circuit_with_directives() -> impl Strategy<Value = QuantumCircuit> {
    let unitary = prop_oneof![
        strategies::circuit(1..=130, 160),
        strategies::circuit(1..=10, 60),
    ];
    // (position, measure rather than barrier, qubit before reduction).
    let directives = proptest::collection::vec((0usize..200, any::<bool>(), 0u32..130), 0..=30);
    (unitary, directives).prop_map(|(qc, directives)| {
        let mut ops = qc.ops().to_vec();
        for (at, measure, q) in directives {
            let gate = if measure {
                Gate::Measure
            } else {
                Gate::Barrier
            };
            let op = Operation::new(gate, &[Qubit(q % qc.num_qubits())]);
            ops.insert(at.min(ops.len()), op);
        }
        let mut out = QuantumCircuit::new(qc.num_qubits());
        out.set_ops(ops).expect("qubits stay in range");
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn analysis_matches_the_dag_oracle(qc in circuit_with_directives()) {
        if let Some(why) = mismatch(&qc) {
            prop_assert!(false, "{why}\n{qc}");
        }
    }
}

/// The grid of `routing_identity.rs` in `qrc-passes`: four devices × every
/// `paper_suite` circuit of 3, 6 and 10 qubits that fits × seeds 0 and 1,
/// compared as generated, after `BasisTranslator`, after `TrivialLayout`
/// and `SabreLayout`, and after each router. A call a pass rejects is
/// skipped.
#[test]
fn analysis_matches_the_dag_oracle_on_the_routing_grid() {
    let devices = [
        DeviceId::IbmqWashington,
        DeviceId::IbmqMontreal,
        DeviceId::RigettiAspenM2,
        DeviceId::OqcLucy,
    ];
    let suite: Vec<QuantumCircuit> = paper_suite(3, 10)
        .into_iter()
        .filter(|qc| [3, 6, 10].contains(&qc.num_qubits()))
        .collect();
    let layouts: [&dyn Pass; 2] = [&TrivialLayout, &SabreLayout];
    let mut compared = 0;
    let mut check = |qc: &QuantumCircuit, stage: &str| {
        if let Some(why) = mismatch(qc) {
            panic!("{} after {stage}: {why}", qc.name());
        }
        compared += 1;
    };
    for qc in &suite {
        check(qc, "generation");
    }
    for dev in devices.map(Device::get) {
        for qc in suite
            .iter()
            .filter(|qc| qc.num_qubits() <= dev.num_qubits())
        {
            for seed in [0, 1] {
                let ctx = PassContext::for_device(&dev).with_seed(seed);
                let Ok(translated) = BasisTranslator.apply(qc, &ctx) else {
                    continue;
                };
                check(&translated.circuit, "BasisTranslator");
                for layout in layouts {
                    let Ok(laid) = layout.apply(&translated.circuit, &ctx) else {
                        continue;
                    };
                    check(&laid.circuit, layout.name());
                    for router in ROUTERS {
                        if let Ok(routed) = router.apply(&laid.circuit, &ctx) {
                            check(&routed.circuit, router.name());
                        }
                    }
                }
            }
        }
    }
    assert!(compared > 1_000, "only {compared} circuits compared");
}
