//! Single-qubit unitary synthesis via Euler angles.
//!
//! Any 2×2 unitary factors as `U = e^{iα} · Rz(φ) · Ry(θ) · Rz(λ)` (ZYZ
//! decomposition). This module extracts the angles from a matrix and
//! re-emits the rotation in each platform's native one-qubit basis:
//!
//! * IBM / OQC `{Rz, √X}`: the ZSXZSXZ identity
//!   `U ≅ Rz(φ+π) · √X · Rz(θ+π) · √X · Rz(λ)`,
//! * Rigetti `{Rz, Rx}`: `Ry(θ) = Rx(π/2) · Rz(−θ) · Rx(−π/2)` inlined,
//! * IonQ `{Rz, Ry}`: the ZYZ form directly.
//!
//! The kernel lives on the stack: it reads a [`Mat2`] (one-qubit
//! matrices are declared once, by [`Gate::matrix_1q`]), takes the
//! determinant with the LU routine [`CMatrix`](qrc_circuit::math::CMatrix)
//! shares, and returns at most five gates inline ([`EulerGates`]), so a
//! synthesis allocates nothing. `BasisTranslator`,
//! `Optimize1qGatesDecomposition` and the KAK resynthesis all call
//! [`synthesize_1q`].

use qrc_circuit::math::{det_2x2, matmul_2x2, Complex, Mat2};
use qrc_circuit::{normalize_angle, Gate, ANGLE_TOL};
use std::f64::consts::{FRAC_PI_2, PI};

/// ZYZ Euler angles of a single-qubit unitary: `U = e^{iα} Rz(φ) Ry(θ) Rz(λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZyzAngles {
    /// Polar rotation angle θ (of the middle `Ry`), in `[0, π]`.
    pub theta: f64,
    /// Leading `Rz` angle φ.
    pub phi: f64,
    /// Trailing `Rz` angle λ.
    pub lambda: f64,
    /// Global phase α.
    pub alpha: f64,
}

/// Extracts ZYZ Euler angles, global phase included, from a 2×2 unitary.
pub fn zyz_angles(u: &Mat2) -> ZyzAngles {
    let (theta, phi, lambda) = zyz(u);
    // Angle normalization can flip the SU(2) sign (2π shifts); recover the
    // exact global phase from the rebuilt matrix, at its largest entry.
    let rebuilt = matmul_2x2(
        &matmul_2x2(&Gate::Rz(phi).matrix_1q(), &Gate::Ry(theta).matrix_1q()),
        &Gate::Rz(lambda).matrix_1q(),
    );
    let (mut best, mut best_mag) = (0usize, 0.0f64);
    for (i, v) in rebuilt.iter().enumerate() {
        if v.abs() > best_mag {
            best_mag = v.abs();
            best = i;
        }
    }
    ZyzAngles {
        theta,
        phi,
        lambda,
        alpha: (u[best] / rebuilt[best]).arg(),
    }
}

/// The ZYZ angles `(θ, φ, λ)` of `u`, φ and λ normalized; the global
/// phase, which no synthesis needs, is not computed.
fn zyz(u: &Mat2) -> (f64, f64, f64) {
    // Normalize to SU(2): det(V) = 1.
    let alpha0 = det_2x2(u).arg() / 2.0;
    let inv_phase = Complex::cis(-alpha0);
    let v00 = u[0] * inv_phase;
    let v10 = u[2] * inv_phase;
    let v11 = u[3] * inv_phase;

    // V = [[cos(θ/2)·e^{-i(φ+λ)/2}, -sin(θ/2)·e^{-i(φ-λ)/2}],
    //      [sin(θ/2)·e^{ i(φ-λ)/2},  cos(θ/2)·e^{ i(φ+λ)/2}]]
    let theta = 2.0 * v10.abs().atan2(v00.abs());
    let (phi, lambda) = if theta.abs() < 1e-12 {
        // Diagonal: only φ+λ defined; put everything in λ.
        (0.0, 2.0 * v11.arg())
    } else if (theta - PI).abs() < 1e-12 {
        // Anti-diagonal: only φ−λ defined.
        (2.0 * v10.arg(), 0.0)
    } else {
        let sum = 2.0 * v11.arg(); // φ+λ
        let diff = 2.0 * v10.arg(); // φ−λ
        ((sum + diff) / 2.0, (sum - diff) / 2.0)
    };
    (theta, normalize_angle(phi), normalize_angle(lambda))
}

/// The single-qubit target bases supported by the synthesizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneQubitBasis {
    /// `{Rz, √X}` — IBM and OQC.
    ZsxBasis,
    /// `{Rz, Rx}` — Rigetti.
    ZxBasis,
    /// `{Rz, Ry}` — IonQ (ZYZ emitted directly).
    ZyBasis,
    /// A single `U(θ, φ, λ)` gate (device-independent canonical form).
    UGate,
}

/// The gates of one single-qubit synthesis, in circuit order: an inline
/// list of at most five gates (3 rotations + 2 fixed), read as a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EulerGates {
    gates: [Gate; 5],
    len: u8,
}

impl EulerGates {
    fn push(&mut self, gate: Gate) {
        self.gates[self.len as usize] = gate;
        self.len += 1;
    }

    /// Pushes `Rz(angle)` with the angle normalized, unless it is a
    /// near-identity.
    fn push_rz(&mut self, angle: f64) {
        let a = normalize_angle(angle);
        if a.abs() >= ANGLE_TOL {
            self.push(Gate::Rz(a));
        }
    }
}

impl std::ops::Deref for EulerGates {
    type Target = [Gate];
    fn deref(&self) -> &[Gate] {
        &self.gates[..self.len as usize]
    }
}

/// Synthesizes the gate sequence (in circuit order) realizing `u` up to
/// global phase in the chosen basis, dropping near-identity rotations.
///
/// The returned sequence is at most 5 gates (3 rotations + 2 fixed) and
/// empty when `u` is the identity.
pub fn synthesize_1q(u: &Mat2, basis: OneQubitBasis) -> EulerGates {
    let (theta, phi, lambda) = zyz(u);
    let near = |x: f64, y: f64| normalize_angle(x - y).abs() < ANGLE_TOL;
    let mut out = EulerGates {
        gates: [Gate::I; 5],
        len: 0,
    };
    match basis {
        OneQubitBasis::UGate => {
            if !(near(theta, 0.0) && near(phi + lambda, 0.0)) {
                out.push(Gate::U(theta, phi, lambda));
            }
        }
        OneQubitBasis::ZyBasis => {
            // Circuit order: Rz(λ), Ry(θ), Rz(φ).
            if theta.abs() < ANGLE_TOL {
                // Diagonal — merge into one Rz.
                out.push_rz(phi + lambda);
            } else {
                out.push_rz(lambda);
                out.push(Gate::Ry(theta));
                out.push_rz(phi);
            }
        }
        OneQubitBasis::ZxBasis => {
            // Ry(θ) = Rx(π/2) · Rz(−θ) · Rx(−π/2)  (matrix order), so in
            // circuit order: Rx(−π/2), Rz(−θ), Rx(π/2).
            if theta.abs() < ANGLE_TOL {
                out.push_rz(phi + lambda);
            } else {
                out.push_rz(lambda);
                out.push(Gate::Rx(-FRAC_PI_2));
                out.push_rz(-theta);
                out.push(Gate::Rx(FRAC_PI_2));
                out.push_rz(phi);
            }
        }
        OneQubitBasis::ZsxBasis => {
            // U(θ,φ,λ) ≅ Rz(φ+π) · √X · Rz(θ+π) · √X · Rz(λ)  (matrix
            // order). Special cases avoid unnecessary √X gates:
            //  θ ≈ 0   → single Rz(φ+λ)
            //  θ ≈ π/2 → Rz(φ+π/2) · √X · Rz(λ−π/2) (one √X)
            if near(theta, 0.0) {
                out.push_rz(phi + lambda);
            } else if near(theta, FRAC_PI_2) {
                // Circuit order: Rz(λ − π/2), SX, Rz(φ + π/2).
                out.push_rz(lambda - FRAC_PI_2);
                out.push(Gate::Sx);
                out.push_rz(phi + FRAC_PI_2);
            } else {
                // Circuit order: Rz(λ), SX, Rz(θ+π), SX, Rz(φ+π).
                out.push_rz(lambda);
                out.push(Gate::Sx);
                out.push_rz(theta + PI);
                out.push(Gate::Sx);
                out.push_rz(phi + PI);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_circuit::math::{CMatrix, IDENTITY_2X2};

    /// Multiplies the matrices of a gate sequence given in circuit order
    /// (i.e. returns `g_n · … · g_2 · g_1`).
    fn sequence_matrix(gates: &[Gate]) -> CMatrix {
        let mut m = CMatrix::identity(2);
        for g in gates {
            m = g.matrix().matmul(&m);
        }
        m
    }

    fn assert_synthesis_ok(u: &Mat2, basis: OneQubitBasis) {
        let gates = synthesize_1q(u, basis);
        let m = sequence_matrix(&gates);
        let [a, b, c, d] = *u;
        assert!(
            m.approx_eq_up_to_phase(&CMatrix::from_rows(&[[a, b], [c, d]]), 1e-9),
            "basis {basis:?}: synthesized {gates:?} does not match"
        );
        assert!(gates.len() <= 5, "too many gates: {gates:?}");
    }

    fn test_gates() -> Vec<Gate> {
        vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.3),
            Gate::Ry(-1.1),
            Gate::Rz(2.7),
            Gate::P(0.4),
            Gate::U(0.7, -0.2, 1.9),
            Gate::U(PI, 0.0, PI),
            Gate::U(FRAC_PI_2, 1.0, -2.0),
        ]
    }

    #[test]
    fn zyz_reconstructs_the_matrix() {
        for g in test_gates() {
            let u = g.matrix();
            let a = zyz_angles(&g.matrix_1q());
            let rebuilt = Gate::Rz(a.phi)
                .matrix()
                .matmul(&Gate::Ry(a.theta).matrix())
                .matmul(&Gate::Rz(a.lambda).matrix())
                .scale(Complex::cis(a.alpha));
            assert!(rebuilt.approx_eq(&u, 1e-9), "{g:?}: {a:?}");
        }
    }

    #[test]
    fn zyz_theta_in_range() {
        for g in test_gates() {
            let a = zyz_angles(&g.matrix_1q());
            assert!((0.0..=PI + 1e-12).contains(&a.theta), "{g:?}");
        }
    }

    #[test]
    fn synthesis_matches_in_all_bases() {
        for g in test_gates() {
            for basis in [
                OneQubitBasis::UGate,
                OneQubitBasis::ZyBasis,
                OneQubitBasis::ZxBasis,
                OneQubitBasis::ZsxBasis,
            ] {
                assert_synthesis_ok(&g.matrix_1q(), basis);
            }
        }
    }

    #[test]
    fn identity_synthesizes_to_nothing() {
        for basis in [
            OneQubitBasis::UGate,
            OneQubitBasis::ZyBasis,
            OneQubitBasis::ZxBasis,
            OneQubitBasis::ZsxBasis,
        ] {
            let gates = synthesize_1q(&IDENTITY_2X2, basis);
            assert!(gates.is_empty(), "{basis:?} produced {gates:?}");
            // Global-phase-only matrices too.
            let phased = IDENTITY_2X2.map(|v| v * Complex::cis(1.23));
            let gates = synthesize_1q(&phased, basis);
            assert!(gates.is_empty(), "{basis:?} produced {gates:?}");
        }
    }

    #[test]
    fn diagonal_gates_need_one_rz() {
        let gates = synthesize_1q(&Gate::T.matrix_1q(), OneQubitBasis::ZsxBasis);
        assert_eq!(gates.len(), 1);
        assert!(matches!(gates[0], Gate::Rz(_)));
    }

    #[test]
    fn sx_like_gates_use_single_sx() {
        // H has θ = π/2, so the ZSX basis should use only one √X.
        let gates = synthesize_1q(&Gate::H.matrix_1q(), OneQubitBasis::ZsxBasis);
        let sx_count = gates.iter().filter(|g| **g == Gate::Sx).count();
        assert_eq!(sx_count, 1, "H should need exactly one √X: {gates:?}");
    }

    #[test]
    fn basis_outputs_use_only_basis_gates() {
        for g in test_gates() {
            for (basis, pred) in [
                (
                    OneQubitBasis::ZsxBasis,
                    (|g: &Gate| matches!(g, Gate::Rz(_) | Gate::Sx)) as fn(&Gate) -> bool,
                ),
                (OneQubitBasis::ZxBasis, |g: &Gate| {
                    matches!(g, Gate::Rz(_) | Gate::Rx(_))
                }),
                (OneQubitBasis::ZyBasis, |g: &Gate| {
                    matches!(g, Gate::Rz(_) | Gate::Ry(_))
                }),
            ] {
                let gates = synthesize_1q(&g.matrix_1q(), basis);
                assert!(
                    gates.iter().all(pred),
                    "{g:?} in {basis:?} produced {gates:?}"
                );
            }
        }
    }
}
