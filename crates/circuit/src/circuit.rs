//! The [`QuantumCircuit`] intermediate representation.
//!
//! A circuit is an ordered sequence of [`Operation`]s (a [`Gate`] applied to
//! specific qubits). This is the single exchange format between every
//! compilation pass, mirroring the "unified interface" trait of the
//! framework in the paper: all passes consume and produce a
//! `QuantumCircuit`.

use crate::gate::Gate;
use crate::CircuitError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A qubit index within a circuit or device.
///
/// # Examples
///
/// ```
/// use qrc_circuit::Qubit;
///
/// let q = Qubit(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Qubit(pub u32);

impl Qubit {
    /// The qubit index as a `usize`, for container indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Qubit {
    fn from(v: u32) -> Self {
        Qubit(v)
    }
}

impl From<usize> for Qubit {
    fn from(v: usize) -> Self {
        Qubit(v as u32)
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The qubit arguments of one operation — an inline array holding up to
/// three qubits (the largest gate arity in the set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Qargs {
    qubits: [Qubit; 3],
    len: u8,
}

impl Qargs {
    /// Creates qubit arguments from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` has more than three entries.
    pub fn new(qubits: &[Qubit]) -> Self {
        assert!(qubits.len() <= 3, "at most 3 qubit arguments supported");
        let mut arr = [Qubit(0); 3];
        arr[..qubits.len()].copy_from_slice(qubits);
        Qargs {
            qubits: arr,
            len: qubits.len() as u8,
        }
    }

    /// The arguments as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Qubit] {
        &self.qubits[..self.len as usize]
    }

    /// Number of qubit arguments.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if there are no qubit arguments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the qubit arguments.
    pub fn iter(&self) -> std::slice::Iter<'_, Qubit> {
        self.as_slice().iter()
    }

    /// Returns `true` if `q` is among the arguments.
    pub fn contains(&self, q: Qubit) -> bool {
        self.as_slice().contains(&q)
    }
}

impl std::ops::Index<usize> for Qargs {
    type Output = Qubit;
    fn index(&self, i: usize) -> &Qubit {
        &self.as_slice()[i]
    }
}

impl<'a> IntoIterator for &'a Qargs {
    type Item = &'a Qubit;
    type IntoIter = std::slice::Iter<'a, Qubit>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One gate application within a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    /// The gate being applied.
    pub gate: Gate,
    /// The qubits it acts on, in gate-argument order
    /// (e.g. `[control, target]` for `Cx`).
    pub qubits: Qargs,
}

impl Operation {
    /// Creates an operation.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate arity or if
    /// the same qubit appears twice.
    pub fn new(gate: Gate, qubits: &[Qubit]) -> Self {
        assert_eq!(
            qubits.len(),
            gate.num_qubits(),
            "gate {gate:?} expects {} qubits, got {}",
            gate.num_qubits(),
            qubits.len()
        );
        for (i, a) in qubits.iter().enumerate() {
            for b in &qubits[i + 1..] {
                assert_ne!(a, b, "duplicate qubit argument {a} for {gate:?}");
            }
        }
        Operation {
            gate,
            qubits: Qargs::new(qubits),
        }
    }

    /// Returns `true` if this operation acts on two qubits with a unitary
    /// gate.
    pub fn is_two_qubit(&self) -> bool {
        self.gate.is_unitary() && self.gate.num_qubits() == 2
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs = self
            .qubits
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(",");
        write!(f, "{} {}", self.gate, qs)
    }
}

/// An ordered quantum circuit on a fixed number of qubits.
///
/// # Examples
///
/// Building a Bell pair:
///
/// ```
/// use qrc_circuit::QuantumCircuit;
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0).cx(0, 1).measure_all();
/// assert_eq!(qc.num_qubits(), 2);
/// assert_eq!(qc.len(), 4); // h, cx, 2 measures
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QuantumCircuit {
    num_qubits: u32,
    name: String,
    ops: Vec<Operation>,
}

impl QuantumCircuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        QuantumCircuit {
            num_qubits,
            name: String::new(),
            ops: Vec::new(),
        }
    }

    /// Creates an empty named circuit (the name is carried through
    /// compilation and reported by the benchmark harness).
    pub fn with_name(num_qubits: u32, name: impl Into<String>) -> Self {
        QuantumCircuit {
            num_qubits,
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// The circuit name (empty if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of operations (including measurements and barriers).
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over the operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Appends an operation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if any argument exceeds the
    /// circuit width.
    pub fn push(&mut self, op: Operation) -> Result<(), CircuitError> {
        for q in op.qubits.iter() {
            if q.0 >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.0,
                    width: self.num_qubits,
                });
            }
        }
        self.ops.push(op);
        Ok(())
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if arity or range constraints are violated — this is the
    /// builder-style API used by generators and tests where indices are
    /// static. Use [`QuantumCircuit::push`] for fallible insertion.
    pub fn append(&mut self, gate: Gate, qubits: &[u32]) -> &mut Self {
        let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q)).collect();
        let op = Operation::new(gate, &qs);
        self.push(op)
            .unwrap_or_else(|e| panic!("append failed: {e}"));
        self
    }

    /// Replaces the whole operation list (used by passes that rebuild).
    ///
    /// # Errors
    ///
    /// Returns an error if any operation references a qubit out of range.
    pub fn set_ops(&mut self, ops: Vec<Operation>) -> Result<(), CircuitError> {
        for op in &ops {
            for q in op.qubits.iter() {
                if q.0 >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        qubit: q.0,
                        width: self.num_qubits,
                    });
                }
            }
        }
        self.ops = ops;
        Ok(())
    }

    /// Appends all operations of `other` (must have the same width or
    /// narrower).
    ///
    /// # Errors
    ///
    /// Returns an error if `other` references qubits out of range.
    pub fn extend_from(&mut self, other: &QuantumCircuit) -> Result<(), CircuitError> {
        for op in other.iter() {
            self.push(*op)?;
        }
        Ok(())
    }

    /// Returns a widened copy of the circuit on `width` qubits with every
    /// qubit index remapped through `map` (`map[old] = new`).
    ///
    /// # Errors
    ///
    /// Returns an error if a mapped index falls outside `width` or `map` is
    /// shorter than the circuit width.
    pub fn remapped(&self, width: u32, map: &[Qubit]) -> Result<QuantumCircuit, CircuitError> {
        if map.len() < self.num_qubits as usize {
            return Err(CircuitError::LayoutTooShort {
                layout: map.len(),
                width: self.num_qubits,
            });
        }
        let mut out = QuantumCircuit::with_name(width, self.name.clone());
        for op in self.iter() {
            let qs: Vec<Qubit> = op.qubits.iter().map(|q| map[q.index()]).collect();
            out.push(Operation::new(op.gate, &qs))?;
        }
        Ok(out)
    }

    /// The inverse circuit (reversed order, each gate inverted), skipping
    /// barriers.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotInvertible`] if the circuit contains a
    /// measurement or an `ISwap` (whose inverse is not in the gate set).
    pub fn inverse(&self) -> Result<QuantumCircuit, CircuitError> {
        let mut out = QuantumCircuit::with_name(self.num_qubits, self.name.clone());
        for op in self.iter().rev() {
            if op.gate == Gate::Barrier {
                continue;
            }
            let inv = op.gate.inverse().ok_or(CircuitError::NotInvertible {
                gate: op.gate.name(),
            })?;
            out.push(Operation::new(inv, op.qubits.as_slice()))?;
        }
        Ok(out)
    }

    /// Gate counts grouped by mnemonic, useful for reporting.
    pub fn count_ops(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for op in self.iter() {
            *m.entry(op.gate.name()).or_insert(0) += 1;
        }
        m
    }

    /// Total number of unitary gates (excludes measures and barriers).
    pub fn num_gates(&self) -> usize {
        self.iter().filter(|op| op.gate.is_unitary()).count()
    }

    /// Number of two-qubit unitary gates.
    pub fn num_two_qubit_gates(&self) -> usize {
        self.iter().filter(|op| op.is_two_qubit()).count()
    }

    /// Returns `true` if the circuit contains at least one measurement.
    pub fn has_measurements(&self) -> bool {
        self.iter().any(|op| op.gate == Gate::Measure)
    }

    /// Removes every operation for which `pred` returns `false`.
    pub fn retain(&mut self, pred: impl FnMut(&Operation) -> bool) {
        self.ops.retain(pred);
    }

    /// A deterministic 64-bit content hash of the circuit's structure:
    /// width, operation order, gate kinds, qubit arguments, and
    /// parameters.
    ///
    /// The hash is **stable across processes and platforms** (FNV-1a
    /// over a fixed byte encoding — no `std::hash` randomization), and
    /// it is **invariant under a QASM round trip**: parameters are
    /// folded through [`crate::qasm::canonical_angle`] first, so
    /// `from_qasm(&to_qasm(qc))` hashes identically to `qc`. The
    /// circuit *name* is deliberately excluded (QASM does not carry
    /// it, and a served circuit's identity is its content).
    ///
    /// Two circuits that differ in any gate, qubit argument, parameter
    /// (beyond canonicalization), or operation order hash differently
    /// except for 2⁻⁶⁴-scale collisions, which makes the hash usable
    /// as a content-address for result caching.
    pub fn structural_hash(&self) -> u64 {
        // FNV-1a, 64-bit.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&self.num_qubits.to_le_bytes());
        for op in &self.ops {
            // Gate mnemonics are unique and stable; a length prefix
            // keeps (name, params) encodings prefix-free.
            let name = op.gate.name();
            eat(&[name.len() as u8]);
            eat(name.as_bytes());
            let params = op.gate.params();
            eat(&[params.len() as u8]);
            for &p in params.iter() {
                eat(&crate::qasm::canonical_angle(p).to_bits().to_le_bytes());
            }
            eat(&[op.qubits.len() as u8]);
            for q in op.qubits.iter() {
                eat(&q.0.to_le_bytes());
            }
        }
        h
    }

    // ----- builder-style helpers -----

    /// Appends a Hadamard.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.append(Gate::H, &[q])
    }
    /// Appends a Pauli-X.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.append(Gate::X, &[q])
    }
    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Y, &[q])
    }
    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Z, &[q])
    }
    /// Appends an S gate.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.append(Gate::S, &[q])
    }
    /// Appends an S† gate.
    pub fn sdg(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Sdg, &[q])
    }
    /// Appends a T gate.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.append(Gate::T, &[q])
    }
    /// Appends a T† gate.
    pub fn tdg(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Tdg, &[q])
    }
    /// Appends a √X gate.
    pub fn sx(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Sx, &[q])
    }
    /// Appends an Rx rotation.
    pub fn rx(&mut self, theta: f64, q: u32) -> &mut Self {
        self.append(Gate::Rx(theta), &[q])
    }
    /// Appends an Ry rotation.
    pub fn ry(&mut self, theta: f64, q: u32) -> &mut Self {
        self.append(Gate::Ry(theta), &[q])
    }
    /// Appends an Rz rotation.
    pub fn rz(&mut self, theta: f64, q: u32) -> &mut Self {
        self.append(Gate::Rz(theta), &[q])
    }
    /// Appends a phase gate.
    pub fn p(&mut self, theta: f64, q: u32) -> &mut Self {
        self.append(Gate::P(theta), &[q])
    }
    /// Appends a generic `U(θ, φ, λ)` gate.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: u32) -> &mut Self {
        self.append(Gate::U(theta, phi, lambda), &[q])
    }
    /// Appends a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Cx, &[control, target])
    }
    /// Appends a controlled-Y.
    pub fn cy(&mut self, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Cy, &[control, target])
    }
    /// Appends a controlled-Z.
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Cz, &[a, b])
    }
    /// Appends a controlled-H.
    pub fn ch(&mut self, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Ch, &[control, target])
    }
    /// Appends a SWAP.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Swap, &[a, b])
    }
    /// Appends a controlled phase.
    pub fn cp(&mut self, theta: f64, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Cp(theta), &[a, b])
    }
    /// Appends a controlled-Rz.
    pub fn crz(&mut self, theta: f64, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Crz(theta), &[control, target])
    }
    /// Appends a controlled-Ry.
    pub fn cry(&mut self, theta: f64, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Cry(theta), &[control, target])
    }
    /// Appends a controlled-Rx.
    pub fn crx(&mut self, theta: f64, control: u32, target: u32) -> &mut Self {
        self.append(Gate::Crx(theta), &[control, target])
    }
    /// Appends an XX interaction.
    pub fn rxx(&mut self, theta: f64, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Rxx(theta), &[a, b])
    }
    /// Appends a ZZ interaction.
    pub fn rzz(&mut self, theta: f64, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Rzz(theta), &[a, b])
    }
    /// Appends a Toffoli gate.
    pub fn ccx(&mut self, c0: u32, c1: u32, target: u32) -> &mut Self {
        self.append(Gate::Ccx, &[c0, c1, target])
    }
    /// Appends a Fredkin gate.
    pub fn cswap(&mut self, control: u32, a: u32, b: u32) -> &mut Self {
        self.append(Gate::Cswap, &[control, a, b])
    }
    /// Appends a measurement on `q`.
    pub fn measure(&mut self, q: u32) -> &mut Self {
        self.append(Gate::Measure, &[q])
    }
    /// Appends a barrier on every qubit.
    pub fn barrier(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.append(Gate::Barrier, &[q]);
        }
        self
    }
    /// Appends a measurement on every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
        self
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QuantumCircuit '{}' ({} qubits, {} ops)",
            self.name,
            self.num_qubits,
            self.ops.len()
        )?;
        for op in self.iter() {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a QuantumCircuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2).measure_all();
        assert_eq!(qc.len(), 7);
        assert_eq!(qc.num_gates(), 4);
        assert_eq!(qc.num_two_qubit_gates(), 2);
        assert!(qc.has_measurements());
        assert_eq!(qc.count_ops()["cx"], 2);
        assert_eq!(qc.count_ops()["measure"], 3);
    }

    #[test]
    fn push_rejects_out_of_range() {
        let mut qc = QuantumCircuit::new(2);
        let op = Operation::new(Gate::H, &[Qubit(5)]);
        assert!(matches!(
            qc.push(op),
            Err(CircuitError::QubitOutOfRange { qubit: 5, width: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn operation_rejects_duplicate_qubits() {
        Operation::new(Gate::Cx, &[Qubit(1), Qubit(1)]);
    }

    #[test]
    #[should_panic(expected = "expects 2 qubits")]
    fn operation_rejects_wrong_arity() {
        Operation::new(Gate::Cx, &[Qubit(1)]);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).s(1).cx(0, 1).t(0);
        let inv = qc.inverse().unwrap();
        let gates: Vec<Gate> = inv.iter().map(|op| op.gate).collect();
        assert_eq!(gates, vec![Gate::Tdg, Gate::Cx, Gate::Sdg, Gate::H]);
    }

    #[test]
    fn inverse_fails_on_measurement() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).measure(0);
        assert!(matches!(
            qc.inverse(),
            Err(CircuitError::NotInvertible { gate: "measure" })
        ));
    }

    #[test]
    fn remapped_relabels_qubits() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1);
        let mapped = qc.remapped(5, &[Qubit(4), Qubit(2)]).unwrap();
        assert_eq!(mapped.num_qubits(), 5);
        let op = mapped.ops()[0];
        assert_eq!(op.qubits.as_slice(), &[Qubit(4), Qubit(2)]);
    }

    #[test]
    fn remapped_rejects_short_layout() {
        let qc = QuantumCircuit::new(3);
        assert!(qc.remapped(3, &[Qubit(0)]).is_err());
    }

    #[test]
    fn qargs_accessors() {
        let qa = Qargs::new(&[Qubit(1), Qubit(2)]);
        assert_eq!(qa.len(), 2);
        assert!(!qa.is_empty());
        assert!(qa.contains(Qubit(2)));
        assert!(!qa.contains(Qubit(0)));
        assert_eq!(qa[0], Qubit(1));
    }

    #[test]
    fn extend_from_appends() {
        let mut a = QuantumCircuit::new(2);
        a.h(0);
        let mut b = QuantumCircuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn structural_hash_ignores_name_but_not_structure() {
        let mut a = QuantumCircuit::with_name(2, "alpha");
        a.h(0).cx(0, 1).rz(0.25, 1);
        let mut b = QuantumCircuit::with_name(2, "beta");
        b.h(0).cx(0, 1).rz(0.25, 1);
        assert_eq!(a.structural_hash(), b.structural_hash());

        let mut gate_diff = QuantumCircuit::new(2);
        gate_diff.h(0).cx(0, 1).rz(0.26, 1);
        let mut qubit_diff = QuantumCircuit::new(2);
        qubit_diff.h(1).cx(0, 1).rz(0.25, 1);
        let mut order_diff = QuantumCircuit::new(2);
        order_diff.cx(0, 1).h(0).rz(0.25, 1);
        let mut width_diff = QuantumCircuit::new(3);
        width_diff.h(0).cx(0, 1).rz(0.25, 1);
        for other in [&gate_diff, &qubit_diff, &order_diff, &width_diff] {
            assert_ne!(a.structural_hash(), other.structural_hash());
        }
    }

    #[test]
    fn structural_hash_is_a_fixed_constant() {
        // Pin the encoding: any accidental change to the hash layout
        // would silently invalidate persisted cache keys.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1).measure_all();
        assert_eq!(qc.structural_hash(), 0x5f64_5329_2f58_a03c);
    }

    #[test]
    fn display_renders_ops() {
        let mut qc = QuantumCircuit::with_name(2, "bell");
        qc.h(0).cx(0, 1);
        let s = qc.to_string();
        assert!(s.contains("bell"));
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0,q1"));
    }
}
