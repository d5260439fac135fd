//! Circuit equivalence checking.
//!
//! The test suites use these checks to prove that every compilation pass is
//! semantics-preserving:
//!
//! * [`circuits_equivalent`] — exact unitary comparison up to global phase
//!   (small circuits),
//! * [`circuits_equivalent_probe`] — randomized statevector probing for
//!   wider circuits,
//! * [`mapped_circuit_equivalent`] — checks a compiled/mapped circuit
//!   against its source through the initial and final qubit layouts.

use crate::state::Statevector;
use crate::unitary::circuit_unitary;
use crate::SimError;
use qrc_circuit::{Gate, QuantumCircuit, Qubit};
use rand::Rng;

/// Strips measurements and barriers, leaving the unitary part.
fn unitary_part(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut qc = circuit.clone();
    qc.retain(|op| op.gate.is_unitary());
    qc
}

/// Returns `true` if the two circuits implement the same unitary up to
/// global phase (measurements/barriers ignored).
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] for circuits wider than
/// [`MAX_UNITARY_QUBITS`](crate::unitary::MAX_UNITARY_QUBITS) — use [`circuits_equivalent_probe`] instead.
pub fn circuits_equivalent(
    a: &QuantumCircuit,
    b: &QuantumCircuit,
    tol: f64,
) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Ok(false);
    }
    let ua = circuit_unitary(&unitary_part(a))?;
    let ub = circuit_unitary(&unitary_part(b))?;
    Ok(ua.approx_eq_up_to_phase(&ub, tol))
}

/// Randomized equivalence probe: applies both circuits to `trials` Haar-ish
/// random product states and compares the outputs up to global phase.
///
/// A disagreement is conclusive; agreement on all trials is strong (but
/// probabilistic) evidence of equivalence.
///
/// # Errors
///
/// Returns an error if the circuits are too wide to simulate at all.
pub fn circuits_equivalent_probe(
    a: &QuantumCircuit,
    b: &QuantumCircuit,
    trials: usize,
    tol: f64,
    rng: &mut impl Rng,
) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Ok(false);
    }
    let a = unitary_part(a);
    let b = unitary_part(b);
    for _ in 0..trials {
        let prep = random_product_state_circuit(a.num_qubits(), rng);
        let mut ca = prep.clone();
        ca.extend_from(&a).expect("same width");
        let mut cb = prep;
        cb.extend_from(&b).expect("same width");
        let sa = Statevector::from_circuit(&ca)?;
        let sb = Statevector::from_circuit(&cb)?;
        if !states_equal_up_to_phase(&sa, &sb, tol) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Checks that a compiled circuit `mapped` (on `≥ n` physical qubits)
/// implements the source circuit `original` (on `n` logical qubits) given
/// the initial and final logical→physical layouts.
///
/// Semantics: preparing logical state `|ψ⟩` on the physical qubits
/// `initial_layout[i]` (all other physical qubits `|0⟩`), then running
/// `mapped`, must equal preparing `original|ψ⟩` on `final_layout[i]` with
/// the other qubits `|0⟩` — up to global phase.
///
/// # Errors
///
/// Returns an error if the physical register is too wide to simulate.
///
/// # Panics
///
/// Panics if the layouts are shorter than the logical width.
pub fn mapped_circuit_equivalent(
    original: &QuantumCircuit,
    mapped: &QuantumCircuit,
    initial_layout: &[Qubit],
    final_layout: &[Qubit],
    trials: usize,
    tol: f64,
    rng: &mut impl Rng,
) -> Result<bool, SimError> {
    let n = original.num_qubits();
    let m = mapped.num_qubits();
    assert!(
        initial_layout.len() >= n as usize,
        "initial layout too short"
    );
    assert!(final_layout.len() >= n as usize, "final layout too short");
    let original = unitary_part(original);
    let mapped = unitary_part(mapped);

    for _ in 0..trials {
        let prep = random_product_state_circuit(n, rng);

        // Physical run: prepare on initial layout, then the mapped circuit.
        let mut phys = prep
            .remapped(m, &initial_layout[..n as usize])
            .expect("layout in range");
        phys.extend_from(&mapped).expect("same width");
        let got = Statevector::from_circuit(&phys)?;

        // Reference: logical result placed at the final layout.
        let mut logical = prep.clone();
        logical.extend_from(&original).expect("same width");
        let expect = logical
            .remapped(m, &final_layout[..n as usize])
            .expect("layout in range");
        let expect = Statevector::from_circuit(&expect)?;

        if !states_equal_up_to_phase(&got, &expect, tol) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Compares two states up to global phase.
pub fn states_equal_up_to_phase(a: &Statevector, b: &Statevector, tol: f64) -> bool {
    if a.num_qubits() != b.num_qubits() {
        return false;
    }
    // Find the largest amplitude of `a` to anchor the phase.
    let (anchor, _) = a
        .amplitudes()
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.norm_sqr().total_cmp(&y.norm_sqr()))
        .expect("non-empty state");
    let aa = a.amplitudes()[anchor];
    let bb = b.amplitudes()[anchor];
    if aa.abs() < tol && bb.abs() < tol {
        return true; // both ≈ zero states (cannot happen for unit norm)
    }
    if bb.abs() < 1e-12 {
        return false;
    }
    let phase = bb / aa;
    if (phase.abs() - 1.0).abs() > 1e-6 {
        return false;
    }
    a.amplitudes()
        .iter()
        .zip(b.amplitudes().iter())
        .all(|(x, y)| (*x * phase).approx_eq(*y, tol))
}

/// Returns `true` if the two circuits produce the same measurement
/// distribution over all qubits from `|0…0⟩` (the right notion of
/// equivalence for transformations like diagonal-before-measure removal,
/// which change the unitary but not any observable statistics).
///
/// # Errors
///
/// Returns an error if either circuit is too wide to simulate.
pub fn measurement_equivalent(
    a: &QuantumCircuit,
    b: &QuantumCircuit,
    tol: f64,
) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Ok(false);
    }
    let pa = Statevector::from_circuit(&unitary_part(a))?.probabilities();
    let pb = Statevector::from_circuit(&unitary_part(b))?.probabilities();
    Ok(pa.iter().zip(pb.iter()).all(|(x, y)| (x - y).abs() <= tol))
}

/// Builds a circuit preparing a random product state: one `U(θ, φ, λ)` per
/// qubit with uniformly random angles.
pub fn random_product_state_circuit(n: u32, rng: &mut impl Rng) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for q in 0..n {
        let theta = rng.gen::<f64>() * std::f64::consts::PI;
        let phi = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        let lambda = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        qc.append(Gate::U(theta, phi, lambda), &[q]);
    }
    qc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn identical_circuits_are_equivalent() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).t(1).cx(1, 2);
        assert!(circuits_equivalent(&qc, &qc, 1e-10).unwrap());
        assert!(circuits_equivalent_probe(&qc, &qc, 4, 1e-10, &mut rng()).unwrap());
    }

    #[test]
    fn hh_equals_identity() {
        let mut a = QuantumCircuit::new(1);
        a.h(0).h(0);
        let b = QuantumCircuit::new(1);
        assert!(circuits_equivalent(&a, &b, 1e-10).unwrap());
    }

    #[test]
    fn global_phase_is_ignored() {
        // Rz(θ) vs P(θ) differ by global phase e^{-iθ/2}.
        let mut a = QuantumCircuit::new(1);
        a.rz(0.73, 0);
        let mut b = QuantumCircuit::new(1);
        b.p(0.73, 0);
        assert!(circuits_equivalent(&a, &b, 1e-10).unwrap());
    }

    #[test]
    fn different_circuits_are_detected() {
        let mut a = QuantumCircuit::new(2);
        a.cx(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.cx(1, 0);
        assert!(!circuits_equivalent(&a, &b, 1e-10).unwrap());
        assert!(!circuits_equivalent_probe(&a, &b, 8, 1e-10, &mut rng()).unwrap());
    }

    #[test]
    fn width_mismatch_is_not_equivalent() {
        let a = QuantumCircuit::new(2);
        let b = QuantumCircuit::new(3);
        assert!(!circuits_equivalent(&a, &b, 1e-10).unwrap());
    }

    #[test]
    fn swap_decomposition_equivalence() {
        let mut a = QuantumCircuit::new(2);
        a.swap(0, 1);
        let mut b = QuantumCircuit::new(2);
        b.cx(0, 1).cx(1, 0).cx(0, 1);
        assert!(circuits_equivalent(&a, &b, 1e-10).unwrap());
    }

    #[test]
    fn measurements_are_ignored_by_equivalence() {
        let mut a = QuantumCircuit::new(2);
        a.h(0).cx(0, 1).measure_all();
        let mut b = QuantumCircuit::new(2);
        b.h(0).cx(0, 1);
        assert!(circuits_equivalent(&a, &b, 1e-10).unwrap());
    }

    #[test]
    fn mapped_identity_layout_roundtrip() {
        // Trivial mapping: same circuit, identity layouts, wider register.
        let mut orig = QuantumCircuit::new(2);
        orig.h(0).cx(0, 1);
        let mapped = orig.remapped(4, &[Qubit(0), Qubit(1)]).unwrap();
        let layout = [Qubit(0), Qubit(1)];
        assert!(
            mapped_circuit_equivalent(&orig, &mapped, &layout, &layout, 4, 1e-8, &mut rng())
                .unwrap()
        );
    }

    #[test]
    fn mapped_with_swap_updates_final_layout() {
        // Original: CX(0,1). Mapped: CX(0,1) then SWAP(1,2) — logical
        // qubit 1 ends on physical qubit 2.
        let mut orig = QuantumCircuit::new(2);
        orig.cx(0, 1);
        let mut mapped = QuantumCircuit::new(3);
        mapped.cx(0, 1).swap(1, 2);
        let initial = [Qubit(0), Qubit(1)];
        let final_ = [Qubit(0), Qubit(2)];
        assert!(
            mapped_circuit_equivalent(&orig, &mapped, &initial, &final_, 4, 1e-8, &mut rng())
                .unwrap()
        );
        // Wrong final layout must fail.
        assert!(!mapped_circuit_equivalent(
            &orig,
            &mapped,
            &initial,
            &initial,
            4,
            1e-8,
            &mut rng()
        )
        .unwrap());
    }

    #[test]
    fn probe_handles_wider_circuits() {
        let n = 12;
        let mut a = QuantumCircuit::new(n);
        let mut b = QuantumCircuit::new(n);
        for q in 0..n - 1 {
            a.cx(q, q + 1);
            b.cx(q, q + 1);
        }
        b.rz(1e-3, 0); // tiny but detectable difference
        assert!(circuits_equivalent_probe(&a, &a, 3, 1e-8, &mut rng()).unwrap());
        assert!(!circuits_equivalent_probe(&a, &b, 8, 1e-6, &mut rng()).unwrap());
    }
}
