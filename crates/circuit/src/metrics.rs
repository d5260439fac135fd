//! Structural circuit metrics.
//!
//! These are the quantities the paper's reward functions and observation
//! features are built from: depth, gate counts, and the SupermarQ-style
//! *critical depth* (share of two-qubit gates on the longest path).
//!
//! Each metric is a linear scan over the op list with per-wire arrays.
//! Every op, directives included, occupies its wires: an op's ASAP level
//! is one more than the highest level of an earlier op on one of its
//! wires, or 0 if there is none, and the depth is the number of levels.

use crate::circuit::QuantumCircuit;

/// What one program-order scan learns about a circuit's ASAP schedule.
pub(crate) struct AsapScan {
    /// Number of ASAP levels.
    pub depth: usize,
    /// Live (level, qubit) pairs: the qubits some op touches, summed over
    /// the levels. Two ops of one level never share a wire, so this is
    /// the sum of each op's distinct qubits.
    pub live_pairs: usize,
    /// Unitary gates (directives excluded).
    pub num_gates: usize,
    /// Two-qubit unitary gates.
    pub num_two_qubit_gates: usize,
}

impl AsapScan {
    pub(crate) fn of(circuit: &QuantumCircuit) -> Self {
        // 1 + the level of the last op seen on each wire, 0 before any.
        let mut wire_level = vec![0usize; circuit.num_qubits() as usize];
        let mut scan = AsapScan {
            depth: 0,
            live_pairs: 0,
            num_gates: 0,
            num_two_qubit_gates: 0,
        };
        for op in circuit.iter() {
            let qubits = op.qubits.as_slice();
            let level = qubits.iter().map(|q| wire_level[q.index()]).max();
            let after = level.unwrap_or(0) + 1;
            for q in qubits {
                wire_level[q.index()] = after;
            }
            scan.depth = scan.depth.max(after);
            scan.live_pairs += (0..qubits.len())
                .filter(|&i| !qubits[..i].contains(&qubits[i]))
                .count();
            scan.num_gates += usize::from(op.gate.is_unitary());
            scan.num_two_qubit_gates += usize::from(op.is_two_qubit());
        }
        scan
    }
}

/// Circuit depth (number of ASAP layers over all operations, measurements
/// and barriers included — matching Qiskit's `QuantumCircuit.depth`).
pub fn depth(circuit: &QuantumCircuit) -> usize {
    AsapScan::of(circuit).depth
}

/// SupermarQ *critical depth*: the fraction of the circuit's two-qubit
/// gates that lie on the longest (critical) path.
///
/// A value near `1.0` means the two-qubit gates form one long serial chain;
/// near `0.0` means they are spread across parallel wires. Circuits without
/// two-qubit gates score `0.0`.
///
/// Equally long paths can hold different numbers of two-qubit gates, so
/// the path is fixed by two tie-breaks: it starts at the earliest op with
/// the longest path to a sink, and from each op it continues through the
/// earliest of its direct successors (the next ops on its wires) with the
/// longest path to a sink.
///
/// The paper's second reward function is `1 − critical_depth`.
///
/// # Examples
///
/// ```
/// use qrc_circuit::{QuantumCircuit, metrics};
///
/// // A GHZ chain is fully serial: every CX is on the critical path.
/// let mut qc = QuantumCircuit::new(4);
/// qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// assert_eq!(metrics::critical_depth(&qc), 1.0);
/// ```
pub fn critical_depth(circuit: &QuantumCircuit) -> f64 {
    /// An op as seen from the ops before it.
    #[derive(Clone, Copy)]
    struct PathHead {
        op: usize,
        /// Ops after this one on its longest path to a sink.
        to_sink: usize,
        /// Two-qubit gates on the chosen path from this op, itself included.
        two_qubit: usize,
    }

    // Scanning backwards, the next op on each wire.
    let mut next_on_wire: Vec<Option<PathHead>> = vec![None; circuit.num_qubits() as usize];
    let mut start: Option<PathHead> = None;
    let mut total = 0;
    for (op, operation) in circuit.iter().enumerate().rev() {
        let mut succ: Option<PathHead> = None;
        for q in operation.qubits.iter() {
            if let Some(s) = next_on_wire[q.index()] {
                let better =
                    |c: PathHead| s.to_sink > c.to_sink || (s.to_sink == c.to_sink && s.op < c.op);
                if succ.is_none_or(better) {
                    succ = Some(s);
                }
            }
        }
        let is_two_qubit = usize::from(operation.is_two_qubit());
        let head = PathHead {
            op,
            to_sink: succ.map_or(0, |s| s.to_sink + 1),
            two_qubit: is_two_qubit + succ.map_or(0, |s| s.two_qubit),
        };
        for q in operation.qubits.iter() {
            next_on_wire[q.index()] = Some(head);
        }
        // Ops arrive in falling order, so `>=` keeps the earliest.
        if start.is_none_or(|s| head.to_sink >= s.to_sink) {
            start = Some(head);
        }
        total += is_two_qubit;
    }
    match start {
        Some(start) if total > 0 => start.two_qubit as f64 / total as f64,
        _ => 0.0,
    }
}

/// The qubit-interaction multigraph degree of every qubit: how many
/// *distinct* other qubits each qubit shares a two-qubit gate with.
///
/// Partners are marked in one bit row of `⌈n / 64⌉` words per qubit, so
/// the scratch space is `n²/8` bytes for `n` qubits (2 KiB at 127).
pub fn interaction_degrees(circuit: &QuantumCircuit) -> Vec<usize> {
    let n = circuit.num_qubits() as usize;
    let words = n.div_ceil(64);
    if words == 0 {
        return Vec::new();
    }
    let mut partners = vec![0u64; n * words];
    for op in circuit.iter().filter(|op| op.is_two_qubit()) {
        let (a, b) = (op.qubits[0].index(), op.qubits[1].index());
        partners[a * words + b / 64] |= 1 << (b % 64);
        partners[b * words + a / 64] |= 1 << (a % 64);
    }
    partners
        .chunks_exact(words)
        .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_depth_zero_without_two_qubit_gates() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).h(1).t(0);
        assert_eq!(critical_depth(&qc), 0.0);
    }

    #[test]
    fn critical_depth_partial() {
        // Serial chain on q0/q1 (2 CXs) plus one parallel CX on q2/q3 that
        // is NOT on the critical path once padded with 1q gates.
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 1).t(1).cx(0, 1).t(1).cx(2, 3);
        let cd = critical_depth(&qc);
        // Critical path: cx t cx t (4 ops, 2 of 3 CXs).
        assert!((cd - 2.0 / 3.0).abs() < 1e-12, "cd = {cd}");
    }

    #[test]
    fn critical_path_ties_go_to_the_earliest_op() {
        // Two sources with paths of two ops: h-h (no CX) starts first.
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).h(0).cx(1, 2).h(1);
        assert_eq!(critical_depth(&qc), 0.0);
        // The first CX has two sinks as successors: h (op 1) before the
        // second CX (op 2), so the path is cx-h.
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).h(0).cx(1, 2);
        assert_eq!(critical_depth(&qc), 0.5);
    }

    #[test]
    fn interaction_degrees_counts_distinct_partners() {
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 1).cx(0, 1).cx(0, 2);
        let deg = interaction_degrees(&qc);
        assert_eq!(deg, vec![2, 1, 1, 0]);
    }

    #[test]
    fn interaction_degrees_cross_word_boundaries() {
        let mut qc = QuantumCircuit::new(130);
        qc.cx(0, 64).cx(0, 129).cx(63, 64).cx(129, 128);
        let deg = interaction_degrees(&qc);
        assert_eq!(
            (deg[0], deg[63], deg[64], deg[128], deg[129]),
            (2, 1, 2, 1, 2)
        );
        assert_eq!(deg.iter().sum::<usize>(), 8);
        assert!(interaction_degrees(&QuantumCircuit::new(0)).is_empty());
    }
}
