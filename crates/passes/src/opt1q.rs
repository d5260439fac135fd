//! Gate-cancellation and single-qubit optimization passes.
//!
//! Re-implementations of the Qiskit/TKET actions from the paper:
//! `Optimize1qGatesDecomposition`, `CXCancellation`, `InverseCancellation`,
//! `CommutativeCancellation`, `CommutativeInverseCancellation`,
//! `RemoveDiagonalGatesBeforeMeasure`, and TKET's `RemoveRedundancies`.

use crate::euler::{synthesize_1q, OneQubitBasis};
use crate::pass::{Pass, PassContext, PassError, PassOutcome};
use crate::synthesis::one_qubit_basis;
use qrc_circuit::math::{matmul_2x2, IDENTITY_2X2};
use qrc_circuit::{commute, normalize_angle, normalize_angle_4pi, Gate, Operation, QuantumCircuit};

/// Removes pairs of adjacent operations for which `cancels(a, b)` holds
/// (adjacent = `b` directly follows `a` on *every* wire of both ops, and
/// both act on the same qubits). Returns the number of removed pairs.
fn cancel_adjacent_pairs(
    circuit: &mut QuantumCircuit,
    mut cancels: impl FnMut(&Operation, &Operation) -> bool,
) -> usize {
    let ops = circuit.ops().to_vec();
    let n = circuit.num_qubits() as usize;
    let mut alive = vec![true; ops.len()];
    // Per-wire stack of live op indices.
    let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut removed = 0;
    for (j, op) in ops.iter().enumerate() {
        let wires: Vec<usize> = op.qubits.iter().map(|q| q.index()).collect();
        let tops: Vec<Option<usize>> = wires.iter().map(|&w| stacks[w].last().copied()).collect();
        let candidate = match tops.first().copied().flatten() {
            Some(i) if tops.iter().all(|t| *t == Some(i)) => Some(i),
            _ => None,
        };
        if let Some(i) = candidate {
            let same_qubits = ops[i].qubits == op.qubits
                || (op.gate.is_symmetric()
                    && ops[i].gate.is_symmetric()
                    && sorted_qubits(&ops[i]) == sorted_qubits(op));
            if same_qubits && ops[i].qubits.len() == op.qubits.len() && cancels(&ops[i], op) {
                alive[i] = false;
                alive[j] = false;
                removed += 1;
                for &w in &wires {
                    let popped = stacks[w].pop();
                    debug_assert_eq!(popped, Some(i));
                }
                continue;
            }
        }
        for &w in &wires {
            stacks[w].push(j);
        }
    }
    if removed > 0 {
        let kept: Vec<Operation> = ops
            .into_iter()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, op)| op)
            .collect();
        circuit.set_ops(kept).expect("same qubits");
    }
    removed
}

fn sorted_qubits(op: &Operation) -> Vec<u32> {
    let mut v: Vec<u32> = op.qubits.iter().map(|q| q.0).collect();
    v.sort_unstable();
    v
}

/// Merges adjacent same-axis parameterized rotations and deletes
/// numerically-identity gates. Returns `true` if anything changed.
fn merge_adjacent_rotations(circuit: &mut QuantumCircuit) -> bool {
    let ops = circuit.ops().to_vec();
    let n = circuit.num_qubits() as usize;
    let mut out: Vec<Operation> = Vec::with_capacity(ops.len());
    // Per-wire index into `out` of the last op.
    let mut last_on_wire: Vec<Option<usize>> = vec![None; n];
    let mut changed = false;
    for op in ops {
        if op.gate.is_identity() {
            changed = true;
            continue;
        }
        let wires: Vec<usize> = op.qubits.iter().map(|q| q.index()).collect();
        let prev = match last_on_wire[wires[0]] {
            Some(i) if wires.iter().all(|&w| last_on_wire[w] == Some(i)) => Some(i),
            _ => None,
        };
        if let Some(i) = prev {
            if out[i].qubits == op.qubits {
                if let Some(merged) = merge_rotations(out[i].gate, op.gate) {
                    changed = true;
                    if merged.is_identity() {
                        // Remove the previous op entirely.
                        out.remove(i);
                        for l in last_on_wire.iter_mut() {
                            *l = match *l {
                                Some(k) if k == i => None,
                                Some(k) if k > i => Some(k - 1),
                                other => other,
                            };
                        }
                    } else {
                        out[i] = Operation::new(merged, out[i].qubits.as_slice());
                    }
                    continue;
                }
            }
        }
        let idx = out.len();
        out.push(op);
        for &w in &wires {
            last_on_wire[w] = Some(idx);
        }
    }
    if changed {
        circuit.set_ops(out).expect("same qubits");
    }
    changed
}

/// Adds angles of two same-axis rotations (`None` if not mergeable).
fn merge_rotations(a: Gate, b: Gate) -> Option<Gate> {
    use Gate::*;
    let g = match (a, b) {
        (Rx(s), Rx(t)) => Rx(normalize_angle(s + t)),
        (Ry(s), Ry(t)) => Ry(normalize_angle(s + t)),
        (Rz(s), Rz(t)) => Rz(normalize_angle(s + t)),
        (P(s), P(t)) => P(normalize_angle(s + t)),
        (Cp(s), Cp(t)) => Cp(normalize_angle(s + t)),
        // Controlled rotations are 4π-periodic.
        (Crx(s), Crx(t)) => Crx(normalize_angle_4pi(s + t)),
        (Cry(s), Cry(t)) => Cry(normalize_angle_4pi(s + t)),
        (Crz(s), Crz(t)) => Crz(normalize_angle_4pi(s + t)),
        (Rxx(s), Rxx(t)) => Rxx(normalize_angle(s + t)),
        (Ryy(s), Ryy(t)) => Ryy(normalize_angle(s + t)),
        (Rzz(s), Rzz(t)) => Rzz(normalize_angle(s + t)),
        _ => return None,
    };
    Some(g)
}

/// Returns `true` if `b` is the inverse of `a` (within angle tolerance).
fn is_inverse_pair(a: &Operation, b: &Operation) -> bool {
    match a.gate.inverse() {
        Some(inv) => inv.approx_eq(b.gate),
        None => false,
    }
}

// ---------------------------------------------------------------------
// CXCancellation
// ---------------------------------------------------------------------

/// Qiskit's `CXCancellation`: removes back-to-back CNOT pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CxCancellation;

impl Pass for CxCancellation {
    fn name(&self) -> &'static str {
        "CXCancellation"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        _ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        // Iterate to a fixed point: chains like CX·CX·CX·CX drop in one
        // pass, but removal can expose new adjacencies across wires.
        while cancel_adjacent_pairs(&mut out, |a, b| a.gate == Gate::Cx && b.gate == Gate::Cx) > 0 {
        }
        Ok(PassOutcome::rewrite(out))
    }
}

// ---------------------------------------------------------------------
// InverseCancellation
// ---------------------------------------------------------------------

/// Qiskit's `InverseCancellation`: removes adjacent gate/inverse pairs
/// (self-inverse gates and named inverse pairs like S/S†, T/T†).
#[derive(Debug, Clone, Copy, Default)]
pub struct InverseCancellation;

impl Pass for InverseCancellation {
    fn name(&self) -> &'static str {
        "InverseCancellation"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        _ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        while cancel_adjacent_pairs(&mut out, is_inverse_pair) > 0 {}
        Ok(PassOutcome::rewrite(out))
    }
}

// ---------------------------------------------------------------------
// Commutative cancellation
// ---------------------------------------------------------------------

/// How far back the commutation scan looks for a cancellation partner.
const COMMUTE_WINDOW: usize = 24;

/// Removes op pairs `(i, j)` where `j`'s gate inverts `i`'s and every
/// operation between them (sharing a qubit) commutes with `i`.
/// `merge_rotations_too` additionally merges same-axis rotations across
/// commuting separations.
fn commutative_cancel(circuit: &mut QuantumCircuit, merge_rotations_too: bool) -> bool {
    let mut ops = circuit.ops().to_vec();
    let mut alive = vec![true; ops.len()];
    let mut changed = false;
    for j in 0..ops.len() {
        if !alive[j] || !ops[j].gate.is_unitary() {
            continue;
        }
        // Walk backwards over live ops that share a qubit with j.
        let mut scanned = 0;
        for i in (0..j).rev() {
            if !alive[i] {
                continue;
            }
            let shares = ops[i].qubits.iter().any(|q| ops[j].qubits.contains(*q));
            if !shares {
                continue;
            }
            scanned += 1;
            if scanned > COMMUTE_WINDOW {
                break;
            }
            let same_qubits = ops[i].qubits == ops[j].qubits
                || (ops[i].gate.is_symmetric()
                    && ops[j].gate.is_symmetric()
                    && sorted_qubits(&ops[i]) == sorted_qubits(&ops[j]));
            if same_qubits {
                if is_inverse_pair(&ops[i], &ops[j]) {
                    alive[i] = false;
                    alive[j] = false;
                    changed = true;
                    break;
                }
                if merge_rotations_too {
                    if let Some(merged) = merge_rotations(ops[i].gate, ops[j].gate) {
                        alive[j] = false;
                        if merged.is_identity() {
                            alive[i] = false;
                        } else {
                            // Update in place so later merges against the
                            // same target see the combined angle.
                            ops[i] = Operation::new(merged, ops[i].qubits.as_slice());
                        }
                        changed = true;
                        break;
                    }
                }
            }
            // Keep scanning only through commuting intermediates.
            if !commute::ops_commute(&ops[i], &ops[j]) {
                break;
            }
        }
    }
    if changed {
        let kept: Vec<Operation> = ops
            .into_iter()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(_, op)| op)
            .collect();
        circuit.set_ops(kept).expect("same qubits");
    }
    changed
}

/// Qiskit's `CommutativeCancellation`: cancels inverse pairs and merges
/// rotations across gates they commute with.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommutativeCancellation;

impl Pass for CommutativeCancellation {
    fn name(&self) -> &'static str {
        "CommutativeCancellation"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        _ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        while commutative_cancel(&mut out, true) {}
        Ok(PassOutcome::rewrite(out))
    }
}

/// Qiskit's `CommutativeInverseCancellation`: cancels gate/inverse pairs
/// across commuting separations (no rotation merging).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommutativeInverseCancellation;

impl Pass for CommutativeInverseCancellation {
    fn name(&self) -> &'static str {
        "CommutativeInverseCancellation"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        _ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        while commutative_cancel(&mut out, false) {}
        Ok(PassOutcome::rewrite(out))
    }
}

// ---------------------------------------------------------------------
// RemoveDiagonalGatesBeforeMeasure
// ---------------------------------------------------------------------

/// Qiskit's `RemoveDiagonalGatesBeforeMeasure`: diagonal gates whose every
/// successor is a Z-basis measurement have no observable effect.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoveDiagonalGatesBeforeMeasure;

impl Pass for RemoveDiagonalGatesBeforeMeasure {
    fn name(&self) -> &'static str {
        "RemoveDiagonalGatesBeforeMeasure"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        _ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        loop {
            let ops = out.ops().to_vec();
            let n = out.num_qubits() as usize;
            // next_on_wire[w] after position i — compute successors by a
            // reverse sweep.
            let mut next_on_wire: Vec<Option<usize>> = vec![None; n];
            let mut removable = vec![false; ops.len()];
            for (i, op) in ops.iter().enumerate().rev() {
                if op.gate.is_unitary() && op.gate.is_diagonal() {
                    let all_measured = op.qubits.iter().all(|q| {
                        matches!(next_on_wire[q.index()], Some(j) if ops[j].gate == Gate::Measure)
                    });
                    if all_measured {
                        removable[i] = true;
                        // Do not update next_on_wire: the gate disappears,
                        // so earlier diagonals see the measure too.
                        continue;
                    }
                }
                for q in op.qubits.iter() {
                    next_on_wire[q.index()] = Some(i);
                }
            }
            if !removable.iter().any(|&r| r) {
                break;
            }
            let kept: Vec<Operation> = ops
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !removable[*i])
                .map(|(_, op)| op)
                .collect();
            out.set_ops(kept)?;
        }
        Ok(PassOutcome::rewrite(out))
    }
}

// ---------------------------------------------------------------------
// Optimize1qGatesDecomposition
// ---------------------------------------------------------------------

/// Qiskit's `Optimize1qGatesDecomposition`: collapse runs of single-qubit
/// gates into one matrix and re-emit an Euler decomposition in the target
/// basis (`U(θ,φ,λ)` when no device is selected).
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimize1qGates;

impl Pass for Optimize1qGates {
    fn name(&self) -> &'static str {
        "Optimize1qGatesDecomposition"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let basis = match ctx.device {
            Some(dev) => one_qubit_basis(dev.platform()),
            None => OneQubitBasis::UGate,
        };
        let native_ok = |g: Gate| match ctx.device {
            Some(dev) => dev.native_gates().contains(g),
            None => true,
        };
        let ops = circuit.ops().to_vec();
        let n = circuit.num_qubits() as usize;
        let mut out: Vec<Operation> = Vec::with_capacity(ops.len());
        // Pending single-qubit run per wire.
        let mut runs: Vec<Vec<Operation>> = vec![Vec::new(); n];

        let flush = |runs: &mut Vec<Vec<Operation>>, w: usize, out: &mut Vec<Operation>| {
            let run = &mut runs[w];
            if run.is_empty() {
                return;
            }
            // Multiply the run (circuit order → matrix product).
            let mut m = IDENTITY_2X2;
            for op in run.iter() {
                m = matmul_2x2(&op.gate.matrix_1q(), &m);
            }
            let synth = synthesize_1q(&m, basis);
            let shorter = synth.len() < run.len();
            let fixes_basis = run.iter().any(|op| !native_ok(op.gate));
            if shorter || fixes_basis {
                let q = run[0].qubits;
                out.extend(synth.iter().map(|&g| Operation::new(g, q.as_slice())));
            } else {
                out.extend_from_slice(run);
            }
            run.clear();
        };

        for op in ops {
            if op.gate.is_unitary() && op.gate.num_qubits() == 1 {
                runs[op.qubits[0].index()].push(op);
            } else {
                for q in op.qubits.iter() {
                    flush(&mut runs, q.index(), &mut out);
                }
                out.push(op);
            }
        }
        for w in 0..n {
            flush(&mut runs, w, &mut out);
        }
        let mut circuit_out = QuantumCircuit::with_name(circuit.num_qubits(), circuit.name());
        circuit_out.set_ops(out)?;
        Ok(PassOutcome::rewrite(circuit_out))
    }
}

// ---------------------------------------------------------------------
// RemoveRedundancies (TKET)
// ---------------------------------------------------------------------

/// TKET's `RemoveRedundancies`: fixpoint loop of identity removal,
/// adjacent inverse-pair cancellation, same-axis rotation merging, and
/// diagonal-before-measure elimination.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoveRedundancies;

impl Pass for RemoveRedundancies {
    fn name(&self) -> &'static str {
        "RemoveRedundancies"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let mut out = circuit.clone();
        loop {
            let mut changed = false;
            changed |= cancel_adjacent_pairs(&mut out, is_inverse_pair) > 0;
            changed |= merge_adjacent_rotations(&mut out);
            let before = out.len();
            out = RemoveDiagonalGatesBeforeMeasure.apply(&out, ctx)?.circuit;
            changed |= out.len() != before;
            if !changed {
                break;
            }
        }
        Ok(PassOutcome::rewrite(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_circuit::ANGLE_TOL;
    use qrc_device::{Device, DeviceId};
    use qrc_sim::equiv::circuits_equivalent;

    fn ctx() -> PassContext<'static> {
        PassContext::device_free()
    }

    #[test]
    fn cx_cancellation_removes_pairs() {
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).cx(0, 1).cx(1, 2);
        let out = CxCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 1);
        assert!(circuits_equivalent(&qc, &out, 1e-10).unwrap());
    }

    #[test]
    fn cx_cancellation_respects_direction_and_interruption() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).cx(1, 0); // opposite directions — no cancel
        let out = CxCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 2);

        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).h(1).cx(0, 1); // H interrupts
        let out = CxCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn cx_chain_collapses_fully() {
        let mut qc = QuantumCircuit::new(2);
        for _ in 0..6 {
            qc.cx(0, 1);
        }
        let out = CxCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert!(out.is_empty());
    }

    #[test]
    fn inverse_cancellation_on_named_pairs() {
        let mut qc = QuantumCircuit::new(2);
        qc.s(0).sdg(0).t(1).tdg(1).h(0).h(0).swap(0, 1).swap(1, 0);
        let out = InverseCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn inverse_cancellation_on_rotations() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(0.7, 0).rz(-0.7, 0);
        let out = InverseCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert!(out.is_empty());
    }

    #[test]
    fn commutative_cancellation_through_control() {
        // Rz on control commutes with CX: Rz(0.5) CX Rz(-0.5) collapses.
        let mut qc = QuantumCircuit::new(2);
        qc.rz(0.5, 0).cx(0, 1).rz(-0.5, 0);
        let out = CommutativeCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 1);
        assert!(circuits_equivalent(&qc, &out, 1e-9).unwrap());
    }

    #[test]
    fn commutative_cancellation_merges_rotations() {
        let mut qc = QuantumCircuit::new(2);
        qc.rz(0.3, 0).cx(0, 1).rz(0.4, 0);
        let out = CommutativeCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 2, "{out}");
        assert!(circuits_equivalent(&qc, &out, 1e-9).unwrap());
    }

    #[test]
    fn commutative_cancellation_blocked_by_noncommuting() {
        let mut qc = QuantumCircuit::new(2);
        qc.rz(0.5, 0).h(0).rz(-0.5, 0);
        let out = CommutativeCancellation.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn commutative_inverse_cancellation_cx_through_diagonal() {
        // CX(0,1) · Rz(0) diag · CX(0,1) — the Rz on the control commutes.
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).rz(0.9, 0).cx(0, 1);
        let out = CommutativeInverseCancellation
            .apply(&qc, &ctx())
            .unwrap()
            .circuit;
        assert_eq!(out.len(), 1);
        assert!(circuits_equivalent(&qc, &out, 1e-9).unwrap());
    }

    #[test]
    fn diagonal_before_measure_removed() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).rz(0.3, 0).t(0).measure(0).z(1).measure(1);
        let out = RemoveDiagonalGatesBeforeMeasure
            .apply(&qc, &ctx())
            .unwrap()
            .circuit;
        // rz, t, z all removed; h and measures stay.
        assert_eq!(out.num_gates(), 1);
        assert_eq!(out.count_ops()["measure"], 2);
    }

    #[test]
    fn diagonal_two_qubit_before_measures_removed() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cz(0, 1).measure_all();
        let out = RemoveDiagonalGatesBeforeMeasure
            .apply(&qc, &ctx())
            .unwrap()
            .circuit;
        assert_eq!(out.count_ops().get("cz"), None);
        // CZ with only one measured qubit must stay.
        let mut qc = QuantumCircuit::new(2);
        qc.cz(0, 1).measure(0).h(1);
        let out = RemoveDiagonalGatesBeforeMeasure
            .apply(&qc, &ctx())
            .unwrap()
            .circuit;
        assert_eq!(out.count_ops()["cz"], 1);
    }

    #[test]
    fn optimize_1q_merges_runs() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).t(0).h(0).t(0).h(0).s(0).sdg(0);
        let out = Optimize1qGates.apply(&qc, &ctx()).unwrap().circuit;
        assert!(out.len() <= 1, "{out}");
        assert!(circuits_equivalent(&qc, &out, 1e-8).unwrap());
    }

    #[test]
    fn optimize_1q_removes_identity_runs() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).h(0);
        let out = Optimize1qGates.apply(&qc, &ctx()).unwrap().circuit;
        assert!(out.is_empty());
    }

    #[test]
    fn optimize_1q_respects_device_basis() {
        let dev = Device::get(DeviceId::IbmqMontreal);
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).t(0).cx(0, 1).h(1);
        let out = Optimize1qGates
            .apply(&qc, &PassContext::for_device(&dev))
            .unwrap()
            .circuit;
        assert!(dev.check_native_gates(&out), "{:?}", out.count_ops());
        assert!(circuits_equivalent(&qc, &out, 1e-8).unwrap());
    }

    #[test]
    fn optimize_1q_keeps_short_native_runs() {
        let dev = Device::get(DeviceId::IbmqMontreal);
        let mut qc = QuantumCircuit::new(1);
        qc.rz(0.4, 0);
        let out = Optimize1qGates
            .apply(&qc, &PassContext::for_device(&dev))
            .unwrap()
            .circuit;
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn remove_redundancies_fixpoint() {
        let mut qc = QuantumCircuit::new(2);
        qc.rz(0.3, 0)
            .rz(-0.3, 0)
            .cx(0, 1)
            .cx(0, 1)
            .rx(0.5, 1)
            .rx(0.5, 1)
            .rx(-1.0, 1)
            .t(0)
            .measure(0);
        let out = RemoveRedundancies.apply(&qc, &ctx()).unwrap().circuit;
        // Everything cancels except the measure (t is diagonal-before-it).
        assert_eq!(out.num_gates(), 0, "{out}");
        assert_eq!(out.count_ops()["measure"], 1);
    }

    #[test]
    fn remove_redundancies_merges_partial_rotations() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(0.2, 0).rz(0.3, 0);
        let out = RemoveRedundancies.apply(&qc, &ctx()).unwrap().circuit;
        assert_eq!(out.len(), 1);
        assert!(matches!(out.ops()[0].gate, Gate::Rz(t) if (t - 0.5).abs() < ANGLE_TOL));
    }

    #[test]
    fn passes_preserve_semantics_on_mixed_circuit() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0)
            .cx(0, 1)
            .cx(0, 1)
            .rz(0.4, 1)
            .rz(0.6, 1)
            .t(2)
            .tdg(2)
            .cz(1, 2)
            .swap(0, 2)
            .swap(0, 2)
            .h(0)
            .h(0);
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(CxCancellation),
            Box::new(InverseCancellation),
            Box::new(CommutativeCancellation),
            Box::new(CommutativeInverseCancellation),
            Box::new(Optimize1qGates),
            Box::new(RemoveRedundancies),
        ];
        for pass in passes {
            let out = pass.apply(&qc, &ctx()).unwrap().circuit;
            assert!(
                circuits_equivalent(&qc, &out, 1e-8).unwrap(),
                "{} broke the circuit",
                pass.name()
            );
            assert!(out.len() <= qc.len(), "{} grew the circuit", pass.name());
        }
    }
}
