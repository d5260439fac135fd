//! Synthesis identity gate: every single-qubit synthesis must keep
//! producing exactly the gates it produced before basis translation went
//! to one pass and the Euler kernel to the stack.
//!
//! Three digests pin the three callers of the Euler kernel, each one
//! FNV-1a over the name, width and every op (gate name, the `to_bits` of
//! each parameter, qubits) of every output, or the error's `Display` text
//! when a call fails:
//!
//! * `BasisTranslator` over `paper_suite(2, 20)` to all four platforms,
//!   each output then translated again to every platform;
//! * `Optimize1qGatesDecomposition`, device-free and on every built-in
//!   device, over the suite as generated and as translated to the
//!   device's platform;
//! * `ConsolidateBlocks` (whose KAK resynthesis emits its local gates
//!   through the Euler kernel) over the suite as generated and as
//!   translated to IBM.
//!
//! The digests were recorded before any of that code was changed.
//!
//! The code it replaced is kept below as the oracle ([`oracle`]): the
//! `CMatrix`-based Euler kernel with its own copy of the one-qubit
//! matrices, the LU determinant and the matrix product, and the
//! two-stage translator that built a `{1q, CX}` circuit first.
//! Proptests require the stack kernel, the 2×2 determinant and the
//! one-pass translator to match it bit for bit.

use proptest::prelude::*;
use qrc_benchgen::paper_suite;
use qrc_circuit::math::{det_2x2, matmul_2x2, CMatrix, Complex, Mat2, IDENTITY_2X2};
use qrc_circuit::strategies::{angle, circuit, unitary_gate};
use qrc_circuit::{Gate, Operation, QuantumCircuit, Qubit};
use qrc_device::{Device, Platform};
use qrc_passes::euler::{synthesize_1q, zyz_angles, OneQubitBasis};
use qrc_passes::opt1q::Optimize1qGates;
use qrc_passes::opt2q::ConsolidateBlocks;
use qrc_passes::synthesis::translate_to_platform;
use qrc_passes::{Pass, PassContext, PassError};
use std::sync::OnceLock;

const BASES: [OneQubitBasis; 4] = [
    OneQubitBasis::UGate,
    OneQubitBasis::ZyBasis,
    OneQubitBasis::ZxBasis,
    OneQubitBasis::ZsxBasis,
];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn digest(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

/// A digest over a grid of calls, with its call and failure counts.
struct Grid {
    hash: Fnv,
    calls: usize,
    failures: usize,
}

impl Grid {
    fn new() -> Self {
        Grid {
            hash: Fnv::new(),
            calls: 0,
            failures: 0,
        }
    }

    /// Hashes one call's output bit for bit, or its error text.
    fn record(&mut self, outcome: &Result<QuantumCircuit, PassError>) {
        self.calls += 1;
        let h = &mut self.hash;
        match outcome {
            Ok(qc) => {
                h.write(qc.name().as_bytes());
                h.write(&qc.num_qubits().to_le_bytes());
                h.write(&(qc.len() as u64).to_le_bytes());
                for op in qc.iter() {
                    h.write(op.gate.name().as_bytes());
                    h.write(&[0xff]);
                    for p in op.gate.params().iter() {
                        h.write(&p.to_bits().to_le_bytes());
                    }
                    for q in op.qubits.iter() {
                        h.write(&q.0.to_le_bytes());
                    }
                }
            }
            Err(e) => {
                self.failures += 1;
                h.write(b"error: ");
                h.write(e.to_string().as_bytes());
            }
        }
    }

    fn result(&self) -> (String, usize, usize) {
        (self.hash.digest(), self.calls, self.failures)
    }
}

fn suite() -> &'static [QuantumCircuit] {
    static SUITE: OnceLock<Vec<QuantumCircuit>> = OnceLock::new();
    SUITE.get_or_init(|| paper_suite(2, 20))
}

/// `translated()[i][p]`: suite circuit `i` translated to `Platform::ALL[p]`.
fn translated() -> &'static [Vec<QuantumCircuit>] {
    static TRANSLATED: OnceLock<Vec<Vec<QuantumCircuit>>> = OnceLock::new();
    TRANSLATED.get_or_init(|| {
        suite()
            .iter()
            .map(|qc| {
                Platform::ALL
                    .iter()
                    .map(|&p| translate_to_platform(qc, p).expect("suite translates"))
                    .collect()
            })
            .collect()
    })
}

fn platform_index(p: Platform) -> usize {
    Platform::ALL.iter().position(|&q| q == p).unwrap()
}

fn apply(
    pass: &dyn Pass,
    qc: &QuantumCircuit,
    ctx: &PassContext<'_>,
) -> Result<QuantumCircuit, PassError> {
    pass.apply(qc, ctx).map(|o| o.circuit)
}

#[test]
fn basis_translator_output_is_unchanged() {
    let mut grid = Grid::new();
    for qc in suite() {
        for p in Platform::ALL {
            let once = translate_to_platform(qc, p);
            grid.record(&once);
            let once = once.unwrap();
            for q in Platform::ALL {
                grid.record(&translate_to_platform(&once, q));
            }
        }
    }
    assert_eq!(
        grid.result(),
        ("fnv1a64:0f625a1918a6f4a0".to_string(), 8320, 0),
        "BasisTranslator output changed (digest, calls, failures)"
    );
}

#[test]
fn optimize_1q_output_is_unchanged() {
    let devices = Device::all();
    let mut grid = Grid::new();
    for (i, qc) in suite().iter().enumerate() {
        grid.record(&apply(&Optimize1qGates, qc, &PassContext::device_free()));
        for dev in &devices {
            let ctx = PassContext::for_device(dev);
            grid.record(&apply(&Optimize1qGates, qc, &ctx));
            let native = &translated()[i][platform_index(dev.platform())];
            grid.record(&apply(&Optimize1qGates, native, &ctx));
        }
    }
    assert_eq!(
        grid.result(),
        ("fnv1a64:3a0db395c25c17a6".to_string(), 4576, 0),
        "Optimize1qGatesDecomposition output changed (digest, calls, failures)"
    );
}

#[test]
fn consolidate_blocks_output_is_unchanged() {
    let ctx = PassContext::device_free();
    let ibm = platform_index(Platform::Ibm);
    let mut grid = Grid::new();
    for (i, qc) in suite().iter().enumerate() {
        grid.record(&apply(&ConsolidateBlocks, qc, &ctx));
        grid.record(&apply(&ConsolidateBlocks, &translated()[i][ibm], &ctx));
    }
    assert_eq!(
        grid.result(),
        ("fnv1a64:286e2667aaef8302".to_string(), 832, 0),
        "ConsolidateBlocks output changed (digest, calls, failures)"
    );
}

/// A gate as compared with the oracle: name, parameter bits, qubits.
type GateBits = (&'static str, Vec<u64>, Vec<u32>);

fn gate_bits(op: &Operation) -> GateBits {
    (
        op.gate.name(),
        op.gate.params().iter().map(|p| p.to_bits()).collect(),
        op.qubits.iter().map(|q| q.0).collect(),
    )
}

fn gates_bits(gates: &[Gate]) -> Vec<GateBits> {
    gates
        .iter()
        .map(|&g| gate_bits(&Operation::new(g, &[Qubit(0)])))
        .collect()
}

/// A translation as compared with the oracle: name, width and every
/// op's bits, or the error text.
fn outcome_bits(
    outcome: &Result<QuantumCircuit, PassError>,
) -> Result<(String, u32, Vec<GateBits>), String> {
    match outcome {
        Ok(qc) => Ok((
            qc.name().to_string(),
            qc.num_qubits(),
            qc.iter().map(gate_bits).collect(),
        )),
        Err(e) => Err(e.to_string()),
    }
}

fn complex_bits(z: Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

fn one_qubit_gate() -> impl Strategy<Value = Gate> {
    unitary_gate().prop_filter("one qubit", |g| g.num_qubits() == 1)
}

/// Random circuits of every gate variant: the shared strategy (which
/// never draws `ISwap`) with `ISwap`s, measurements and barriers
/// inserted at random positions.
fn any_circuit() -> impl Strategy<Value = QuantumCircuit> {
    let inserts = proptest::collection::vec((0..64usize, 0..3u8, 0..5u32, 0..5u32), 0..8);
    (circuit(1..=5, 24), inserts).prop_map(|(qc, inserts)| {
        let n = qc.num_qubits();
        let mut ops = qc.ops().to_vec();
        for (at, kind, a, b) in inserts {
            let (a, b) = (a % n, b % n);
            let op = match kind {
                0 => Operation::new(Gate::Measure, &[Qubit(a)]),
                1 => Operation::new(Gate::Barrier, &[Qubit(a)]),
                _ if a != b => Operation::new(Gate::ISwap, &[Qubit(a), Qubit(b)]),
                _ => continue,
            };
            ops.insert(at % (ops.len() + 1), op);
        }
        let mut out = QuantumCircuit::with_name(n, "any");
        out.set_ops(ops).expect("qubits in range");
        out
    })
}

/// One matrix entry: exact zeros of both signs, units, halves and random
/// values, so pivot ties, row swaps, zero factors and signed-zero
/// arithmetic all occur.
fn entry() -> impl Strategy<Value = Complex> {
    (part(), part()).prop_map(|(re, im)| Complex::new(re, im))
}

fn part() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(-1.0),
        Just(0.5),
        -2.0..2.0f64,
    ]
}

/// `n × n` matrices (`n` in 2–4), row-major. Some are shaped: the
/// first column's second entry `i·a₀₀` ties the pivot exactly, and a zero
/// first column makes the matrix singular.
fn det_case() -> impl Strategy<Value = (usize, Vec<Complex>)> {
    (2..=4usize)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(entry(), n * n), 0..4u8))
        .prop_map(|(n, mut m, shape)| {
            match shape {
                0 => m[n] = Complex::new(-m[0].im, m[0].re),
                1 => {
                    for row in 0..n {
                        m[row * n] = Complex::ZERO;
                    }
                }
                _ => {}
            }
            (n, m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 2×2 determinant and `CMatrix::det` both equal the old LU
    /// routine bit for bit.
    #[test]
    fn determinants_match_the_old_lu_routine((n, m) in det_case()) {
        let mut cm = CMatrix::zeros(n);
        for (i, &v) in m.iter().enumerate() {
            cm[(i / n, i % n)] = v;
        }
        let want = complex_bits(oracle::det(&cm));
        prop_assert_eq!(complex_bits(cm.det()), want);
        if n == 2 {
            let m2: Mat2 = m.as_slice().try_into().unwrap();
            prop_assert_eq!(complex_bits(det_2x2(&m2)), want);
        }
    }

    /// A run of one-qubit gates multiplies, decomposes and resynthesizes
    /// in every basis exactly as the `CMatrix` kernel did.
    #[test]
    fn euler_kernel_matches_the_cmatrix_oracle(
        run in proptest::collection::vec(one_qubit_gate(), 1..6),
        phase in angle(),
    ) {
        let mut m = IDENTITY_2X2;
        let mut want = CMatrix::identity(2);
        for &g in &run {
            m = matmul_2x2(&g.matrix_1q(), &m);
            want = oracle::matmul(&oracle::matrix(g), &want);
        }
        prop_assert_eq!(m.map(complex_bits), <[Complex; 4]>::try_from(want.as_slice()).unwrap().map(complex_bits));
        // A global phase on top, as an arbitrary unitary carries one.
        let phased = m.map(|v| v * Complex::cis(phase));
        let want_phased = want.scale(Complex::cis(phase));
        for (u, w) in [(m, &want), (phased, &want_phased)] {
            let got = zyz_angles(&u);
            let old = oracle::zyz_angles(w);
            prop_assert_eq!(
                [got.theta, got.phi, got.lambda, got.alpha].map(f64::to_bits),
                [old.theta, old.phi, old.lambda, old.alpha].map(f64::to_bits)
            );
            for basis in BASES {
                prop_assert_eq!(
                    gates_bits(&synthesize_1q(&u, basis)),
                    gates_bits(&oracle::synthesize_1q(w, basis)),
                    "{:?} of {:?}", basis, run
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one-pass translator returns what the two-stage translator
    /// returned, on every platform.
    #[test]
    fn translator_matches_the_two_stage_oracle(qc in any_circuit()) {
        for p in Platform::ALL {
            prop_assert_eq!(
                outcome_bits(&translate_to_platform(&qc, p)),
                outcome_bits(&oracle::translate(&qc, p)),
                "{}", p
            );
        }
    }
}

/// Every gate variant, at angles on and next to the special cases of the
/// Euler kernel, translates as the oracle translated it.
#[test]
fn every_gate_variant_matches_the_oracle() {
    use std::f64::consts::{FRAC_PI_2, PI};
    let angles = [
        0.0,
        -0.0,
        1e-11,
        FRAC_PI_2,
        -FRAC_PI_2,
        PI,
        -PI,
        2.0 * PI,
        0.7,
    ];
    let mut gates = vec![
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Cx,
        Gate::Cy,
        Gate::Cz,
        Gate::Ch,
        Gate::Swap,
        Gate::ISwap,
        Gate::Ecr,
        Gate::Ccx,
        Gate::Cswap,
        Gate::Measure,
        Gate::Barrier,
    ];
    for t in angles {
        gates.extend([
            Gate::Rx(t),
            Gate::Ry(t),
            Gate::Rz(t),
            Gate::P(t),
            Gate::U(t, 0.3, -t),
            Gate::U(0.4, t, t),
            Gate::Cp(t),
            Gate::Crx(t),
            Gate::Cry(t),
            Gate::Crz(t),
            Gate::Rxx(t),
            Gate::Ryy(t),
            Gate::Rzz(t),
        ]);
    }
    for g in gates {
        let mut qc = QuantumCircuit::new(3);
        let qubits: Vec<Qubit> = (0..g.num_qubits() as u32).rev().map(Qubit).collect();
        qc.push(Operation::new(g, &qubits)).unwrap();
        for p in Platform::ALL {
            assert_eq!(
                outcome_bits(&translate_to_platform(&qc, p)),
                outcome_bits(&oracle::translate(&qc, p)),
                "{g:?} on {p}"
            );
        }
    }
}

/// The code the stack kernel and the one-pass translator replaced, as it
/// stood: heap matrices, a global phase rebuilt from three rotation
/// matrices, and translation through an intermediate `{1q, CX}` circuit.
mod oracle {
    use qrc_circuit::math::{CMatrix, Complex};
    use qrc_circuit::{normalize_angle, Gate, Operation, QuantumCircuit, Qubit, ANGLE_TOL};
    use qrc_device::Platform;
    use qrc_passes::euler::OneQubitBasis;
    use qrc_passes::PassError;
    use std::f64::consts::{FRAC_PI_2, PI};

    /// The one-qubit gate matrices as `Gate::matrix` declared them.
    pub fn matrix(g: Gate) -> CMatrix {
        use Gate::*;
        let z = Complex::ZERO;
        let o = Complex::ONE;
        let i = Complex::I;
        let s2 = 1.0 / 2.0_f64.sqrt();
        match g {
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
            other => panic!("{other:?} is not a one-qubit gate"),
        }
    }

    /// The old `CMatrix::matmul`.
    pub fn matmul(lhs: &CMatrix, rhs: &CMatrix) -> CMatrix {
        let n = lhs.dim();
        let mut out = CMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = lhs[(i, k)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// The old `CMatrix::det`.
    pub fn det(m: &CMatrix) -> Complex {
        let n = m.dim();
        let mut a = m.clone();
        let mut det = Complex::ONE;
        for col in 0..n {
            // Partial pivot: largest modulus in this column at/below diag.
            let mut pivot = col;
            let mut best = a[(col, col)].norm_sqr();
            for row in (col + 1)..n {
                let v = a[(row, col)].norm_sqr();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best == 0.0 {
                return Complex::ZERO;
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot, j)];
                    a[(pivot, j)] = tmp;
                }
                det = -det;
            }
            let d = a[(col, col)];
            det *= d;
            let inv = d.recip();
            for row in (col + 1)..n {
                let factor = a[(row, col)] * inv;
                if factor.re == 0.0 && factor.im == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = a[(col, j)];
                    a[(row, j)] -= factor * v;
                }
            }
        }
        det
    }

    /// The old ZYZ angles.
    pub struct ZyzAngles {
        pub theta: f64,
        pub phi: f64,
        pub lambda: f64,
        pub alpha: f64,
    }

    /// The old `zyz_angles`, global-phase rebuild included.
    pub fn zyz_angles(u: &CMatrix) -> ZyzAngles {
        assert_eq!(u.dim(), 2, "zyz_angles needs a single-qubit matrix");
        // Normalize to SU(2): det(V) = 1.
        let det = det(u);
        let alpha0 = det.arg() / 2.0;
        let inv_phase = Complex::cis(-alpha0);
        let v00 = u[(0, 0)] * inv_phase;
        let v10 = u[(1, 0)] * inv_phase;
        let v11 = u[(1, 1)] * inv_phase;
        let theta = 2.0 * v10.abs().atan2(v00.abs());
        let (phi, lambda) = if theta.abs() < 1e-12 {
            (0.0, 2.0 * v11.arg())
        } else if (theta - PI).abs() < 1e-12 {
            (2.0 * v10.arg(), 0.0)
        } else {
            let sum = 2.0 * v11.arg();
            let diff = 2.0 * v10.arg();
            ((sum + diff) / 2.0, (sum - diff) / 2.0)
        };
        let phi = normalize_angle(phi);
        let lambda = normalize_angle(lambda);
        let rebuilt = matmul(
            &matmul(&matrix(Gate::Rz(phi)), &matrix(Gate::Ry(theta))),
            &matrix(Gate::Rz(lambda)),
        );
        let (mut best, mut best_mag) = (0usize, 0.0f64);
        for (i, v) in rebuilt.as_slice().iter().enumerate() {
            if v.abs() > best_mag {
                best_mag = v.abs();
                best = i;
            }
        }
        let (r, c) = (best / 2, best % 2);
        let alpha = (u[(r, c)] / rebuilt[(r, c)]).arg();
        ZyzAngles {
            theta,
            phi,
            lambda,
            alpha,
        }
    }

    /// The old `synthesize_1q`, returning a `Vec`.
    pub fn synthesize_1q(u: &CMatrix, basis: OneQubitBasis) -> Vec<Gate> {
        let ZyzAngles {
            theta, phi, lambda, ..
        } = zyz_angles(u);
        let near = |x: f64, y: f64| normalize_angle(x - y).abs() < ANGLE_TOL;
        let mut out = Vec::new();
        match basis {
            OneQubitBasis::UGate => {
                if !(near(theta, 0.0) && near(phi + lambda, 0.0)) {
                    out.push(Gate::U(theta, phi, lambda));
                }
            }
            OneQubitBasis::ZyBasis => {
                if theta.abs() < ANGLE_TOL {
                    push_rz(&mut out, phi + lambda);
                } else {
                    push_rz(&mut out, lambda);
                    out.push(Gate::Ry(theta));
                    push_rz(&mut out, phi);
                }
            }
            OneQubitBasis::ZxBasis => {
                if theta.abs() < ANGLE_TOL {
                    push_rz(&mut out, phi + lambda);
                } else {
                    push_rz(&mut out, lambda);
                    out.push(Gate::Rx(-FRAC_PI_2));
                    push_rz(&mut out, -theta);
                    out.push(Gate::Rx(FRAC_PI_2));
                    push_rz(&mut out, phi);
                }
            }
            OneQubitBasis::ZsxBasis => {
                if near(theta, 0.0) {
                    push_rz(&mut out, phi + lambda);
                } else if near(theta, FRAC_PI_2) {
                    push_rz(&mut out, lambda - FRAC_PI_2);
                    out.push(Gate::Sx);
                    push_rz(&mut out, phi + FRAC_PI_2);
                } else {
                    push_rz(&mut out, lambda);
                    out.push(Gate::Sx);
                    push_rz(&mut out, theta + PI);
                    out.push(Gate::Sx);
                    push_rz(&mut out, phi + PI);
                }
            }
        }
        out
    }

    fn push_rz(out: &mut Vec<Gate>, angle: f64) {
        let a = normalize_angle(angle);
        if a.abs() >= ANGLE_TOL {
            out.push(Gate::Rz(a));
        }
    }

    fn one_qubit_basis(platform: Platform) -> OneQubitBasis {
        match platform {
            Platform::Ibm | Platform::Oqc => OneQubitBasis::ZsxBasis,
            Platform::Rigetti => OneQubitBasis::ZxBasis,
            Platform::Ionq => OneQubitBasis::ZyBasis,
        }
    }

    /// The old two-stage `translate_to_platform`.
    pub fn translate(
        circuit: &QuantumCircuit,
        platform: Platform,
    ) -> Result<QuantumCircuit, PassError> {
        let lowered = lower_to_canonical(circuit, platform)?;
        lower_canonical_to_platform(&lowered, platform)
    }

    /// Stage 1: everything but native gates to `{1q, CX}`.
    fn lower_to_canonical(
        circuit: &QuantumCircuit,
        p: Platform,
    ) -> Result<QuantumCircuit, PassError> {
        let mut out = QuantumCircuit::with_name(circuit.num_qubits(), circuit.name().to_string());
        for op in circuit.iter() {
            if op.gate.is_unitary() && p.native_gates().contains(op.gate) {
                out.push(*op)?;
                continue;
            }
            lower_op_to_canonical(op, &mut out)?;
        }
        Ok(out)
    }

    fn lower_op_to_canonical(op: &Operation, out: &mut QuantumCircuit) -> Result<(), PassError> {
        use Gate::*;
        let qs = op.qubits.as_slice();
        let q = |i: usize| qs[i].0;
        macro_rules! emit {
            ($gate:expr, $($qb:expr),+) => {
                out.push(Operation::new($gate, &[$(Qubit($qb)),+]))?
            };
        }
        match op.gate {
            Cx | Measure | Barrier => out.push(*op)?,
            g if g.num_qubits() == 1 => out.push(*op)?,
            Cy => {
                emit!(Sdg, q(1));
                emit!(Cx, q(0), q(1));
                emit!(S, q(1));
            }
            Cz => {
                emit!(H, q(1));
                emit!(Cx, q(0), q(1));
                emit!(H, q(1));
            }
            Ch => {
                emit!(S, q(1));
                emit!(H, q(1));
                emit!(T, q(1));
                emit!(Cx, q(0), q(1));
                emit!(Tdg, q(1));
                emit!(H, q(1));
                emit!(Sdg, q(1));
            }
            Swap => {
                emit!(Cx, q(0), q(1));
                emit!(Cx, q(1), q(0));
                emit!(Cx, q(0), q(1));
            }
            ISwap => {
                emit!(S, q(0));
                emit!(S, q(1));
                emit!(H, q(0));
                emit!(Cx, q(0), q(1));
                emit!(Cx, q(1), q(0));
                emit!(H, q(1));
            }
            Ecr => {
                emit!(Sx, q(0));
                emit!(Cx, q(1), q(0));
                emit!(S, q(1));
                emit!(X, q(1));
            }
            Cp(t) => {
                emit!(P(t / 2.0), q(0));
                emit!(Cx, q(0), q(1));
                emit!(P(-t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
                emit!(P(t / 2.0), q(1));
            }
            Crz(t) => {
                emit!(Rz(t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
                emit!(Rz(-t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
            }
            Crx(t) => {
                emit!(H, q(1));
                emit!(Rz(t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
                emit!(Rz(-t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
                emit!(H, q(1));
            }
            Cry(t) => {
                emit!(Ry(t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
                emit!(Ry(-t / 2.0), q(1));
                emit!(Cx, q(0), q(1));
            }
            Rzz(t) => {
                emit!(Cx, q(0), q(1));
                emit!(Rz(t), q(1));
                emit!(Cx, q(0), q(1));
            }
            Rxx(t) => {
                emit!(H, q(0));
                emit!(H, q(1));
                emit!(Cx, q(0), q(1));
                emit!(Rz(t), q(1));
                emit!(Cx, q(0), q(1));
                emit!(H, q(0));
                emit!(H, q(1));
            }
            Ryy(t) => {
                emit!(Rx(FRAC_PI_2), q(0));
                emit!(Rx(FRAC_PI_2), q(1));
                emit!(Cx, q(0), q(1));
                emit!(Rz(t), q(1));
                emit!(Cx, q(0), q(1));
                emit!(Rx(-FRAC_PI_2), q(0));
                emit!(Rx(-FRAC_PI_2), q(1));
            }
            Ccx => {
                emit!(H, q(2));
                emit!(Cx, q(1), q(2));
                emit!(Tdg, q(2));
                emit!(Cx, q(0), q(2));
                emit!(T, q(2));
                emit!(Cx, q(1), q(2));
                emit!(Tdg, q(2));
                emit!(Cx, q(0), q(2));
                emit!(T, q(1));
                emit!(T, q(2));
                emit!(H, q(2));
                emit!(Cx, q(0), q(1));
                emit!(T, q(0));
                emit!(Tdg, q(1));
                emit!(Cx, q(0), q(1));
            }
            Cswap => {
                emit!(Cx, q(2), q(1));
                let ccx = Operation::new(Ccx, &[Qubit(q(0)), Qubit(q(1)), Qubit(q(2))]);
                lower_op_to_canonical(&ccx, out)?;
                emit!(Cx, q(2), q(1));
            }
            other => {
                return Err(PassError::UnsupportedGate {
                    pass: "BasisTranslator",
                    gate: other.name(),
                })
            }
        }
        Ok(())
    }

    /// Stages 2 and 3: CX to the entangler, 1q gates resynthesized.
    fn lower_canonical_to_platform(
        circuit: &QuantumCircuit,
        platform: Platform,
    ) -> Result<QuantumCircuit, PassError> {
        let basis = one_qubit_basis(platform);
        let gates = platform.native_gates();
        let mut out = QuantumCircuit::with_name(circuit.num_qubits(), circuit.name().to_string());
        for op in circuit.iter() {
            if !op.gate.is_unitary() || gates.contains(op.gate) {
                out.push(*op)?;
                continue;
            }
            if op.gate == Gate::Cx {
                emit_cx_as_entangler(op.qubits[0].0, op.qubits[1].0, platform, &mut out)?;
                continue;
            }
            let q = op.qubits[0];
            for g in synthesize_1q(&matrix(op.gate), basis) {
                out.push(Operation::new(g, &[q]))?;
            }
        }
        Ok(out)
    }

    fn emit_cx_as_entangler(
        a: u32,
        b: u32,
        platform: Platform,
        out: &mut QuantumCircuit,
    ) -> Result<(), PassError> {
        macro_rules! emit {
            ($gate:expr, $($qb:expr),+) => {
                out.push(Operation::new($gate, &[$(Qubit($qb)),+]))?
            };
        }
        match platform {
            Platform::Ibm => emit!(Gate::Cx, a, b),
            Platform::Rigetti => {
                for _ in 0..1 {
                    emit!(Gate::Rz(FRAC_PI_2), b);
                    emit!(Gate::Rx(FRAC_PI_2), b);
                    emit!(Gate::Rz(FRAC_PI_2), b);
                }
                emit!(Gate::Cz, a, b);
                emit!(Gate::Rz(FRAC_PI_2), b);
                emit!(Gate::Rx(FRAC_PI_2), b);
                emit!(Gate::Rz(FRAC_PI_2), b);
            }
            Platform::Ionq => {
                emit!(Gate::Ry(FRAC_PI_2), a);
                emit!(Gate::Rxx(FRAC_PI_2), a, b);
                emit!(Gate::Rx(-FRAC_PI_2), a);
                emit!(Gate::Rx(-FRAC_PI_2), b);
                emit!(Gate::Ry(-FRAC_PI_2), a);
            }
            Platform::Oqc => {
                emit!(Gate::Rz(FRAC_PI_2), a);
                emit!(Gate::X, a);
                emit!(Gate::Ecr, b, a);
                emit!(Gate::Sx, b);
            }
        }
        Ok(())
    }
}
