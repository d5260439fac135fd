//! The gate set of the intermediate representation.
//!
//! Every gate used by the compilation passes, the device native-gate sets,
//! and the benchmark generators is a variant of [`Gate`]. Parameterized
//! gates carry their angles inline (`f64` radians), so an [`Gate`] is `Copy`
//! and cheap to move through pass pipelines.

use crate::math::{CMatrix, Complex};
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI};
use std::fmt;

/// Angle equality tolerance used by structural predicates
/// (e.g. [`Gate::is_identity`], Clifford detection).
pub const ANGLE_TOL: f64 = 1e-10;

/// A quantum gate (or the non-unitary `Measure`/`Barrier` directives).
///
/// The set covers the union of what IBM, Rigetti, IonQ and OQC devices need
/// natively plus the standard algorithmic gates emitted by the benchmark
/// generators.
///
/// # Examples
///
/// ```
/// use qrc_circuit::Gate;
///
/// assert_eq!(Gate::H.num_qubits(), 1);
/// assert_eq!(Gate::Cx.inverse(), Some(Gate::Cx));
/// assert!(Gate::S.is_clifford());
/// assert!(!Gate::T.is_clifford());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    // --- 1-qubit, fixed ---
    /// Identity.
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    // --- 1-qubit, parameterized ---
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Phase gate `diag(1, e^{iθ})`.
    P(f64),
    /// Generic single-qubit gate `U(θ, φ, λ)` (OpenQASM `u3` convention).
    U(f64, f64, f64),
    // --- 2-qubit, fixed ---
    /// Controlled-X (CNOT); qubit 0 is control, qubit 1 is target.
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled-H.
    Ch,
    /// SWAP (symmetric).
    Swap,
    /// iSWAP (symmetric).
    ISwap,
    /// Echoed cross-resonance, OQC/IBM native two-qubit interaction:
    /// `ECR = (IX − XY)/√2`.
    Ecr,
    // --- 2-qubit, parameterized ---
    /// Controlled phase `diag(1,1,1,e^{iθ})` (symmetric).
    Cp(f64),
    /// Controlled-RX.
    Crx(f64),
    /// Controlled-RY.
    Cry(f64),
    /// Controlled-RZ.
    Crz(f64),
    /// Ising XX interaction `e^{-iθ XX/2}` (IonQ Mølmer–Sørensen, symmetric).
    Rxx(f64),
    /// Ising YY interaction `e^{-iθ YY/2}` (symmetric).
    Ryy(f64),
    /// Ising ZZ interaction `e^{-iθ ZZ/2}` (symmetric).
    Rzz(f64),
    // --- 3-qubit ---
    /// Toffoli (CCX); qubits 0 and 1 are controls, qubit 2 is target.
    Ccx,
    /// Fredkin (CSWAP); qubit 0 is control, qubits 1 and 2 are swapped.
    Cswap,
    // --- non-unitary directives ---
    /// Measurement in the computational basis (classical bit = qubit index).
    Measure,
    /// Scheduling barrier; no semantic effect.
    Barrier,
}

impl Gate {
    /// Number of qubits the gate acts on.
    ///
    /// `Measure` acts on one qubit; `Barrier` is treated as a one-qubit
    /// directive and applied per qubit.
    pub const fn num_qubits(self) -> usize {
        use Gate::*;
        match self {
            I | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | Rx(_) | Ry(_) | Rz(_) | P(_)
            | U(..) | Measure | Barrier => 1,
            Cx | Cy | Cz | Ch | Swap | ISwap | Ecr | Cp(_) | Crx(_) | Cry(_) | Crz(_) | Rxx(_)
            | Ryy(_) | Rzz(_) => 2,
            Ccx | Cswap => 3,
        }
    }

    /// Lower-case OpenQASM-style mnemonic (without parameters).
    pub const fn name(self) -> &'static str {
        use Gate::*;
        match self {
            I => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            P(_) => "p",
            U(..) => "u",
            Cx => "cx",
            Cy => "cy",
            Cz => "cz",
            Ch => "ch",
            Swap => "swap",
            ISwap => "iswap",
            Ecr => "ecr",
            Cp(_) => "cp",
            Crx(_) => "crx",
            Cry(_) => "cry",
            Crz(_) => "crz",
            Rxx(_) => "rxx",
            Ryy(_) => "ryy",
            Rzz(_) => "rzz",
            Ccx => "ccx",
            Cswap => "cswap",
            Measure => "measure",
            Barrier => "barrier",
        }
    }

    /// Returns `true` for unitary gates (everything except
    /// `Measure`/`Barrier`).
    pub const fn is_unitary(self) -> bool {
        !matches!(self, Gate::Measure | Gate::Barrier)
    }

    /// Returns `true` if the gate acts on exactly two qubits.
    pub const fn is_two_qubit(self) -> bool {
        self.num_qubits() == 2
    }

    /// The gate parameters (rotation angles), if any, as an inline list.
    pub fn params(self) -> Params {
        use Gate::*;
        match self {
            Rx(t) | Ry(t) | Rz(t) | P(t) | Cp(t) | Crx(t) | Cry(t) | Crz(t) | Rxx(t) | Ryy(t)
            | Rzz(t) => Params {
                values: [t, 0.0, 0.0],
                len: 1,
            },
            U(t, p, l) => Params {
                values: [t, p, l],
                len: 3,
            },
            _ => Params {
                values: [0.0; 3],
                len: 0,
            },
        }
    }

    /// The inverse gate, or `None` for non-unitary directives.
    pub fn inverse(self) -> Option<Gate> {
        use Gate::*;
        Some(match self {
            I => I,
            X => X,
            Y => Y,
            Z => Z,
            H => H,
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            P(t) => P(-t),
            U(t, p, l) => U(-t, -l, -p),
            Cx => Cx,
            Cy => Cy,
            Cz => Cz,
            Ch => Ch,
            Swap => Swap,
            ISwap => {
                // iSWAP⁻¹ is not in the gate set as a named gate; expressing
                // it needs parameterized form. Use the identity
                // iSWAP⁻¹ = iSWAP³ only at circuit level; here report the
                // closest parameterized equivalent: (XX+YY)(-π/2) — not
                // representable as a single Gate, so signal "self-inverse
                // unavailable".
                return None;
            }
            Ecr => Ecr,
            Cp(t) => Cp(-t),
            Crx(t) => Crx(-t),
            Cry(t) => Cry(-t),
            Crz(t) => Crz(-t),
            Rxx(t) => Rxx(-t),
            Ryy(t) => Ryy(-t),
            Rzz(t) => Rzz(-t),
            Ccx => Ccx,
            Cswap => Cswap,
            Measure | Barrier => return None,
        })
    }

    /// Returns `true` if the gate is the identity operation up to *global*
    /// phase, e.g. `Rz(0)`, `Rz(2π)`, or `I`.
    ///
    /// Controlled rotations are 4π-periodic: `CRZ(2π) = Z ⊗ I` turns the
    /// rotation's −1 into a *relative* phase, so it is **not** an identity.
    pub fn is_identity(self) -> bool {
        use Gate::*;
        match self {
            I => true,
            // 2π-periodic up to global phase.
            Rx(t) | Ry(t) | Rz(t) | P(t) | Cp(t) | Rxx(t) | Ryy(t) | Rzz(t) => {
                normalize_angle(t).abs() < ANGLE_TOL
            }
            // 4π-periodic: the controlled block flips sign at 2π.
            Crx(t) | Cry(t) | Crz(t) => normalize_angle_4pi(t).abs() < ANGLE_TOL,
            U(t, p, l) => {
                normalize_angle(t).abs() < ANGLE_TOL && normalize_angle(p + l).abs() < ANGLE_TOL
            }
            _ => false,
        }
    }

    /// Returns `true` if the gate's matrix is diagonal in the computational
    /// basis (commutes with Z-basis measurement).
    pub fn is_diagonal(self) -> bool {
        use Gate::*;
        matches!(
            self,
            I | Z | S | Sdg | T | Tdg | Rz(_) | P(_) | Cz | Cp(_) | Crz(_) | Rzz(_)
        )
    }

    /// Returns `true` if the gate is a member of the Clifford group.
    ///
    /// Parameterized rotations are Clifford exactly when their angle is an
    /// integer multiple of π/2 (within [`ANGLE_TOL`]).
    pub fn is_clifford(self) -> bool {
        use Gate::*;
        match self {
            I | X | Y | Z | H | S | Sdg | Sx | Sxdg | Cx | Cy | Cz | Swap | ISwap | Ecr => true,
            T | Tdg => false,
            Rx(t) | Ry(t) | Rz(t) | P(t) => is_multiple_of(t, FRAC_PI_2),
            U(t, p, l) => {
                is_multiple_of(t, FRAC_PI_2)
                    && is_multiple_of(p, FRAC_PI_2)
                    && is_multiple_of(l, FRAC_PI_2)
            }
            Ch | Cp(_) | Crx(_) | Cry(_) | Crz(_) | Rxx(_) | Ryy(_) | Rzz(_) | Ccx | Cswap
            | Measure | Barrier => false,
        }
    }

    /// Returns `true` if the two gates are the same operation within
    /// [`ANGLE_TOL`] on parameters.
    pub fn approx_eq(self, other: Gate) -> bool {
        use Gate::*;
        match (self, other) {
            (Rx(a), Rx(b))
            | (Ry(a), Ry(b))
            | (Rz(a), Rz(b))
            | (P(a), P(b))
            | (Cp(a), Cp(b))
            | (Rxx(a), Rxx(b))
            | (Ryy(a), Ryy(b))
            | (Rzz(a), Rzz(b)) => normalize_angle(a - b).abs() < ANGLE_TOL,
            (Crx(a), Crx(b)) | (Cry(a), Cry(b)) | (Crz(a), Crz(b)) => {
                normalize_angle_4pi(a - b).abs() < ANGLE_TOL
            }
            (U(a1, a2, a3), U(b1, b2, b3)) => {
                normalize_angle(a1 - b1).abs() < ANGLE_TOL
                    && normalize_angle(a2 - b2).abs() < ANGLE_TOL
                    && normalize_angle(a3 - b3).abs() < ANGLE_TOL
            }
            _ => self == other,
        }
    }

    /// Returns `true` if the qubit order of a two-qubit gate is irrelevant
    /// (the matrix is symmetric under qubit exchange).
    pub const fn is_symmetric(self) -> bool {
        use Gate::*;
        matches!(self, Cz | Swap | ISwap | Cp(_) | Rxx(_) | Ryy(_) | Rzz(_))
    }

    /// The unitary matrix of the gate (dimension `2^k` for a `k`-qubit
    /// gate), using the convention that qubit 0 of the gate is the **most
    /// significant** bit of the index.
    ///
    /// # Panics
    ///
    /// Panics if called on `Measure` or `Barrier`; check
    /// [`Gate::is_unitary`] first.
    pub fn matrix(self) -> CMatrix {
        use Gate::*;
        let z = Complex::ZERO;
        let o = Complex::ONE;
        let i = Complex::I;
        let s2 = 1.0 / 2.0_f64.sqrt();
        match self {
            I => CMatrix::identity(2),
            X => CMatrix::from_rows(&[[z, o], [o, z]]),
            Y => CMatrix::from_rows(&[[z, -i], [i, z]]),
            Z => CMatrix::from_rows(&[[o, z], [z, -o]]),
            H => CMatrix::from_rows(&[
                [Complex::real(s2), Complex::real(s2)],
                [Complex::real(s2), Complex::real(-s2)],
            ]),
            S => CMatrix::from_rows(&[[o, z], [z, i]]),
            Sdg => CMatrix::from_rows(&[[o, z], [z, -i]]),
            T => CMatrix::from_rows(&[[o, z], [z, Complex::cis(PI / 4.0)]]),
            Tdg => CMatrix::from_rows(&[[o, z], [z, Complex::cis(-PI / 4.0)]]),
            Sx => CMatrix::from_rows(&[
                [Complex::new(0.5, 0.5), Complex::new(0.5, -0.5)],
                [Complex::new(0.5, -0.5), Complex::new(0.5, 0.5)],
            ]),
            Sxdg => CMatrix::from_rows(&[
                [Complex::new(0.5, -0.5), Complex::new(0.5, 0.5)],
                [Complex::new(0.5, 0.5), Complex::new(0.5, -0.5)],
            ]),
            Rx(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                CMatrix::from_rows(&[
                    [Complex::real(c), Complex::new(0.0, -s)],
                    [Complex::new(0.0, -s), Complex::real(c)],
                ])
            }
            Ry(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                CMatrix::from_rows(&[
                    [Complex::real(c), Complex::real(-s)],
                    [Complex::real(s), Complex::real(c)],
                ])
            }
            Rz(t) => CMatrix::from_rows(&[[Complex::cis(-t / 2.0), z], [z, Complex::cis(t / 2.0)]]),
            P(t) => CMatrix::from_rows(&[[o, z], [z, Complex::cis(t)]]),
            U(t, p, l) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                CMatrix::from_rows(&[
                    [Complex::real(c), Complex::cis(l) * (-s)],
                    [Complex::cis(p) * s, Complex::cis(p + l) * c],
                ])
            }
            Cx => controlled(X.matrix()),
            Cy => controlled(Y.matrix()),
            Cz => controlled(Z.matrix()),
            Ch => controlled(H.matrix()),
            Swap => CMatrix::from_rows(&[[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]),
            ISwap => CMatrix::from_rows(&[[o, z, z, z], [z, z, i, z], [z, i, z, z], [z, z, z, o]]),
            Ecr => {
                // ECR = (IX − XY)/√2 with qubit 0 the control-like qubit.
                let ix = I.matrix().kron(&X.matrix());
                let xy = X.matrix().kron(&Y.matrix());
                let mut m = CMatrix::zeros(4);
                for r in 0..4 {
                    for c in 0..4 {
                        m[(r, c)] = (ix[(r, c)] - xy[(r, c)]) * s2;
                    }
                }
                m
            }
            Cp(t) => controlled(P(t).matrix()),
            Crx(t) => controlled(Rx(t).matrix()),
            Cry(t) => controlled(Ry(t).matrix()),
            Crz(t) => controlled(Rz(t).matrix()),
            Rxx(t) => two_qubit_ising(t, X.matrix(), X.matrix()),
            Ryy(t) => two_qubit_ising(t, Y.matrix(), Y.matrix()),
            Rzz(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                let em = Complex::new(c, -s);
                let ep = Complex::new(c, s);
                CMatrix::from_rows(&[[em, z, z, z], [z, ep, z, z], [z, z, ep, z], [z, z, z, em]])
            }
            Ccx => {
                let mut m = CMatrix::identity(8);
                m[(6, 6)] = z;
                m[(7, 7)] = z;
                m[(6, 7)] = o;
                m[(7, 6)] = o;
                m
            }
            Cswap => {
                let mut m = CMatrix::identity(8);
                m[(5, 5)] = z;
                m[(6, 6)] = z;
                m[(5, 6)] = o;
                m[(6, 5)] = o;
                m
            }
            Measure | Barrier => panic!("non-unitary directive {self:?} has no matrix"),
        }
    }
}

/// The parameters of one gate — an inline list of up to three angles
/// (the most any gate in the set takes), read as a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    values: [f64; 3],
    len: u8,
}

impl std::ops::Deref for Params {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined = params
                .iter()
                .map(|p| format!("{p:.6}"))
                .collect::<Vec<_>>()
                .join(",");
            write!(f, "{}({})", self.name(), joined)
        }
    }
}

/// Embeds a single-qubit (or `k`-qubit) matrix as a controlled operation,
/// control on gate-qubit 0 (most significant index bit).
fn controlled(u: CMatrix) -> CMatrix {
    let d = u.dim();
    let mut m = CMatrix::identity(2 * d);
    for r in 0..d {
        for c in 0..d {
            m[(d + r, d + c)] = u[(r, c)];
        }
    }
    m
}

/// `e^{-i θ/2 (A⊗B)}` for involutory Pauli-like `A`, `B`
/// (`(A⊗B)² = I`), via `cos(θ/2) I − i sin(θ/2) (A⊗B)`.
fn two_qubit_ising(theta: f64, a: CMatrix, b: CMatrix) -> CMatrix {
    let ab = a.kron(&b);
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    let mut m = CMatrix::zeros(4);
    let id = CMatrix::identity(4);
    for r in 0..4 {
        for col in 0..4 {
            m[(r, col)] = id[(r, col)] * Complex::real(c) + ab[(r, col)] * Complex::new(0.0, -s);
        }
    }
    m
}

/// Maps an angle to the interval `(-π, π]`.
pub fn normalize_angle(theta: f64) -> f64 {
    let two_pi = 2.0 * PI;
    let mut t = theta % two_pi;
    if t <= -PI {
        t += two_pi;
    } else if t > PI {
        t -= two_pi;
    }
    t
}

/// Maps an angle to the interval `(-2π, 2π]` (the natural period of
/// controlled rotations, which pick up a relative sign at 2π).
pub fn normalize_angle_4pi(theta: f64) -> f64 {
    let four_pi = 4.0 * PI;
    let mut t = theta % four_pi;
    if t <= -2.0 * PI {
        t += four_pi;
    } else if t > 2.0 * PI {
        t -= four_pi;
    }
    t
}

/// Returns `true` if `theta` is an integer multiple of `unit`
/// (within [`ANGLE_TOL`]).
fn is_multiple_of(theta: f64, unit: f64) -> bool {
    let r = (theta / unit).round();
    (theta - r * unit).abs() < ANGLE_TOL
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn all_unitary_gates() -> Vec<Gate> {
        use Gate::*;
        vec![
            I,
            X,
            Y,
            Z,
            H,
            S,
            Sdg,
            T,
            Tdg,
            Sx,
            Sxdg,
            Rx(0.3),
            Ry(-1.2),
            Rz(2.5),
            P(0.7),
            U(0.4, 1.1, -0.6),
            Cx,
            Cy,
            Cz,
            Ch,
            Swap,
            ISwap,
            Ecr,
            Cp(0.9),
            Crx(1.3),
            Cry(-0.4),
            Crz(0.8),
            Rxx(0.5),
            Ryy(1.7),
            Rzz(-2.1),
            Ccx,
            Cswap,
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_unitary_gates() {
            let m = g.matrix();
            assert_eq!(m.dim(), 1 << g.num_qubits(), "dim mismatch for {g:?}");
            assert!(m.is_unitary(1e-10), "{g:?} matrix not unitary");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        for g in all_unitary_gates() {
            let Some(inv) = g.inverse() else {
                assert_eq!(g, Gate::ISwap, "only iSWAP lacks an in-set inverse");
                continue;
            };
            let prod = g.matrix().matmul(&inv.matrix());
            let id = CMatrix::identity(prod.dim());
            assert!(
                prod.approx_eq_up_to_phase(&id, 1e-10),
                "{g:?} * inverse != I"
            );
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::Sx.matrix();
        assert!(sx.matmul(&sx).approx_eq_up_to_phase(&Gate::X.matrix(), TOL));
    }

    #[test]
    fn h_decomposition_rz_sx_rz() {
        // H = e^{iπ/2} Rz(π/2)·SX·Rz(π/2) — the decomposition from the
        // paper's Example 3 (global phase irrelevant).
        let rz = Gate::Rz(FRAC_PI_2).matrix();
        let sx = Gate::Sx.matrix();
        let prod = rz.matmul(&sx).matmul(&rz);
        assert!(prod.approx_eq_up_to_phase(&Gate::H.matrix(), 1e-10));
    }

    #[test]
    fn u_covers_standard_gates() {
        assert!(Gate::U(PI, 0.0, PI)
            .matrix()
            .approx_eq_up_to_phase(&Gate::X.matrix(), 1e-10));
        assert!(Gate::U(FRAC_PI_2, 0.0, PI)
            .matrix()
            .approx_eq_up_to_phase(&Gate::H.matrix(), 1e-10));
        assert!(Gate::U(0.0, 0.0, FRAC_PI_2)
            .matrix()
            .approx_eq_up_to_phase(&Gate::S.matrix(), 1e-10));
    }

    #[test]
    fn diagonal_gates_have_diagonal_matrices() {
        for g in all_unitary_gates() {
            if !g.is_diagonal() {
                continue;
            }
            let m = g.matrix();
            for r in 0..m.dim() {
                for c in 0..m.dim() {
                    if r != c {
                        assert!(
                            m[(r, c)].abs() < TOL,
                            "{g:?} claims diagonal but has off-diagonal entry"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clifford_detection_on_rotations() {
        assert!(Gate::Rz(FRAC_PI_2).is_clifford());
        assert!(Gate::Rz(PI).is_clifford());
        assert!(Gate::Rz(0.0).is_clifford());
        assert!(!Gate::Rz(PI / 4.0).is_clifford());
        assert!(Gate::Rx(-FRAC_PI_2).is_clifford());
        assert!(!Gate::Rxx(FRAC_PI_2).is_clifford());
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::I.is_identity());
        assert!(Gate::Rz(0.0).is_identity());
        assert!(Gate::Rz(4.0 * PI).is_identity());
        assert!(!Gate::Rz(0.1).is_identity());
        assert!(Gate::U(0.0, 0.3, -0.3).is_identity());
        assert!(!Gate::X.is_identity());
    }

    #[test]
    fn normalize_angle_range() {
        assert!((normalize_angle(3.0 * PI) - PI).abs() < TOL);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < TOL);
        assert!(normalize_angle(0.0).abs() < TOL);
        assert!((normalize_angle(7.0) - (7.0 - 2.0 * PI)).abs() < TOL);
    }

    #[test]
    fn symmetric_gate_matrices_are_exchange_invariant() {
        // SWAP · U · SWAP == U for symmetric gates.
        let swap = Gate::Swap.matrix();
        for g in all_unitary_gates() {
            if g.num_qubits() != 2 || !g.is_symmetric() {
                continue;
            }
            let m = g.matrix();
            let swapped = swap.matmul(&m).matmul(&swap);
            assert!(swapped.approx_eq(&m, 1e-10), "{g:?} not exchange-invariant");
        }
    }

    #[test]
    fn ecr_is_maximally_entangling_clifford() {
        // ECR² should be identity up to phase? ECR is involutory:
        // ((IX−XY)/√2)² = (IXIX − IXXY − XYIX + XYXY)/2
        //              = (I − XZ·(i?) ... ) — verify numerically instead.
        let e = Gate::Ecr.matrix();
        let sq = e.matmul(&e);
        assert!(sq.approx_eq_up_to_phase(&CMatrix::identity(4), 1e-10));
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(format!("{}", Gate::H), "h");
        assert_eq!(format!("{}", Gate::Rz(0.5)), "rz(0.500000)");
    }

    #[test]
    fn rzz_matches_ising_construction() {
        let direct = Gate::Rzz(0.83).matrix();
        let generic = two_qubit_ising(0.83, Gate::Z.matrix(), Gate::Z.matrix());
        assert!(direct.approx_eq(&generic, 1e-12));
    }
}
