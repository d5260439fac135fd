//! `BasisTranslator` — rule-driven translation to a device's native gates.
//!
//! Mirrors Qiskit's `BasisTranslator`: gates are rewritten through a
//! library of decomposition templates until the circuit only contains
//! native gates of the selected platform. Translation is one pass over
//! the input that appends to one op list, reserved from the input length.
//! Native ops, measurements and barriers are kept as they are, so
//! translation is idempotent; every other op is
//!
//! 1. lowered by a fixed template to the canonical set `{1q unitaries,
//!    CX}` (the same per-op templates lower a circuit for routing), and
//! 2. each lowered op that is not native is mapped straight to natives:
//!    CX to the platform's entangling gate (CZ / R_XX / ECR) with native
//!    local corrections, a one-qubit gate to the platform's one-qubit
//!    basis via ZYZ Euler angles, computed on the stack
//!    ([`synthesize_1q`]).
//!
//! No intermediate circuit is built and no op allocates.
//!
//! Every template is verified unitary-exact by the test-suite.

use crate::euler::{synthesize_1q, OneQubitBasis};
use crate::pass::{Pass, PassContext, PassError, PassOutcome};
use qrc_circuit::{Gate, Operation, QuantumCircuit, Qubit};
use qrc_device::Platform;
use std::f64::consts::FRAC_PI_2;

/// Qiskit-style `BasisTranslator` pass (the paper's Synthesis action).
#[derive(Debug, Clone, Copy, Default)]
pub struct BasisTranslator;

impl Pass for BasisTranslator {
    fn name(&self) -> &'static str {
        "BasisTranslator"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let device = ctx.require_device(self.name())?;
        let translated = translate_to_platform(circuit, device.platform())?;
        Ok(PassOutcome::rewrite(translated))
    }
}

/// Translates `circuit` so it only uses `platform`-native gates.
///
/// # Errors
///
/// Returns [`PassError::Circuit`] if an internal rebuild fails (cannot
/// happen for well-formed circuits).
pub fn translate_to_platform(
    circuit: &QuantumCircuit,
    platform: Platform,
) -> Result<QuantumCircuit, PassError> {
    let natives = platform.native_gates();
    let basis = one_qubit_basis(platform);
    lower(circuit, platform, |op, ops| {
        if !op.gate.is_unitary() || natives.contains(op.gate) {
            ops.push(op);
        } else if op.gate == Gate::Cx {
            emit_cx_as_entangler(op.qubits[0].0, op.qubits[1].0, platform, ops);
        } else {
            debug_assert_eq!(
                op.gate.num_qubits(),
                1,
                "the templates lower every other gate to one-qubit gates and CX"
            );
            let q = op.qubits.as_slice();
            let gates = synthesize_1q(&op.gate.matrix_1q(), basis);
            ops.extend(gates.iter().map(|&g| Operation::new(g, q)));
        }
    })
}

/// Rewrites every multi-qubit gate that is not `platform`-native into
/// `{1q gates, CX}` using fixed templates, keeping 1q gates, directives
/// and platform-native gates as-is.
pub(crate) fn lower_to_canonical(
    circuit: &QuantumCircuit,
    platform: Platform,
) -> Result<QuantumCircuit, PassError> {
    lower(circuit, platform, |op, ops| ops.push(op))
}

/// The one pass behind [`translate_to_platform`] and
/// [`lower_to_canonical`]: keeps directives and `platform`-native gates,
/// lowers every other op through its template, and hands each lowered op
/// to `sink` with the output list.
fn lower(
    circuit: &QuantumCircuit,
    platform: Platform,
    mut sink: impl FnMut(Operation, &mut Vec<Operation>),
) -> Result<QuantumCircuit, PassError> {
    let natives = platform.native_gates();
    let mut ops = Vec::with_capacity(circuit.len());
    for op in circuit.iter() {
        if !op.gate.is_unitary() || natives.contains(op.gate) {
            ops.push(*op);
        } else {
            lower_op_to_canonical(op, &mut |lowered| sink(lowered, &mut ops))?;
        }
    }
    let mut out = QuantumCircuit::with_name(circuit.num_qubits(), circuit.name());
    out.set_ops(ops)?;
    Ok(out)
}

/// Lowers one op to `{1q gates, CX}` through its template, passing each
/// lowered op to `emit` in circuit order.
fn lower_op_to_canonical(
    op: &Operation,
    emit: &mut impl FnMut(Operation),
) -> Result<(), PassError> {
    use Gate::*;
    let qs = op.qubits.as_slice();
    let q = |i: usize| qs[i].0;
    macro_rules! emit {
        ($gate:expr, $($qb:expr),+) => {
            emit(Operation::new($gate, &[$(Qubit($qb)),+]))
        };
    }
    match op.gate {
        // Native to the canonical set.
        Cx | Measure | Barrier => emit(*op),
        g if g.num_qubits() == 1 => emit(*op),
        // Two-qubit templates over {1q, CX}.
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
            // ECR(p,q) = X_q · S_q · CX(q,p) · √X_p (matrix order, up to a
            // global phase), the inverse of the CX-from-ECR relation
            // CX(a,b) ≅ √X_b · ECR(b,a) · X_a · S_a.
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
            // CRX = (H on target) CRZ (H on target).
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
        // Three-qubit templates.
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
            // Toffoli on (0, 1, 2) — reuse the CCX template by recursion.
            let ccx = Operation::new(Ccx, &[Qubit(q(0)), Qubit(q(1)), Qubit(q(2))]);
            lower_op_to_canonical(&ccx, emit)?;
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

/// The single-qubit Euler basis of each platform.
pub fn one_qubit_basis(platform: Platform) -> OneQubitBasis {
    match platform {
        Platform::Ibm | Platform::Oqc => OneQubitBasis::ZsxBasis,
        Platform::Rigetti => OneQubitBasis::ZxBasis,
        Platform::Ionq => OneQubitBasis::ZyBasis,
    }
}

/// Appends `CX(a, b)` in terms of the platform's entangling gate, with
/// local corrections that are already native.
fn emit_cx_as_entangler(a: u32, b: u32, platform: Platform, ops: &mut Vec<Operation>) {
    macro_rules! emit {
        ($gate:expr, $($qb:expr),+) => {
            ops.push(Operation::new($gate, &[$(Qubit($qb)),+]))
        };
    }
    match platform {
        Platform::Ibm => emit!(Gate::Cx, a, b),
        Platform::Rigetti => {
            // CX(a,b) = H(b) CZ(a,b) H(b); H in {Rz, Rx}:
            // H ≅ Rz(π/2)·Rx(π/2)·Rz(π/2).
            emit!(Gate::Rz(FRAC_PI_2), b);
            emit!(Gate::Rx(FRAC_PI_2), b);
            emit!(Gate::Rz(FRAC_PI_2), b);
            emit!(Gate::Cz, a, b);
            emit!(Gate::Rz(FRAC_PI_2), b);
            emit!(Gate::Rx(FRAC_PI_2), b);
            emit!(Gate::Rz(FRAC_PI_2), b);
        }
        Platform::Ionq => {
            // CX(a,b) ≅ Ry(π/2) a · R_XX(π/2) · Rx(−π/2) a · Rx(−π/2) b ·
            //           Ry(−π/2) a   (circuit order).
            emit!(Gate::Ry(FRAC_PI_2), a);
            emit!(Gate::Rxx(FRAC_PI_2), a, b);
            emit!(Gate::Rx(-FRAC_PI_2), a);
            emit!(Gate::Rx(-FRAC_PI_2), b);
            emit!(Gate::Ry(-FRAC_PI_2), a);
        }
        Platform::Oqc => {
            // CX(a,b) ≅ Rz(π/2) a · X a · ECR(b,a) · SX b  (circuit order),
            // derived from ECR(b,a) = Xₐ · RZX_{ab}(π/2).
            emit!(Gate::Rz(FRAC_PI_2), a);
            emit!(Gate::X, a);
            emit!(Gate::Ecr, b, a);
            emit!(Gate::Sx, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_device::Device;
    use qrc_sim::equiv::circuits_equivalent;

    /// All gates the translator must handle, on small argument sets.
    fn template_cases() -> Vec<QuantumCircuit> {
        let mut cases = Vec::new();
        let single = |g: Gate| {
            let mut qc = QuantumCircuit::new(g.num_qubits() as u32);
            qc.append(g, &(0..g.num_qubits() as u32).collect::<Vec<_>>());
            qc
        };
        for g in [
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
            Gate::Rx(0.37),
            Gate::Ry(-0.9),
            Gate::Rz(2.1),
            Gate::P(1.3),
            Gate::U(0.5, 1.5, -0.7),
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Ch,
            Gate::Swap,
            Gate::ISwap,
            Gate::Ecr,
            Gate::Cp(0.9),
            Gate::Crx(1.2),
            Gate::Cry(-0.8),
            Gate::Crz(0.6),
            Gate::Rxx(0.4),
            Gate::Ryy(-1.4),
            Gate::Rzz(2.2),
            Gate::Ccx,
            Gate::Cswap,
        ] {
            cases.push(single(g));
        }
        cases
    }

    #[test]
    fn canonical_lowering_is_equivalence_preserving() {
        for qc in template_cases() {
            let lowered = lower_to_canonical(&qc, Platform::Ibm).unwrap();
            assert!(
                circuits_equivalent(&qc, &lowered, 1e-8).unwrap(),
                "lowering of {:?} wrong",
                qc.ops()[0].gate
            );
            assert!(lowered.iter().all(|op| {
                !op.gate.is_unitary() || op.gate == Gate::Cx || op.gate.num_qubits() == 1
            }));
        }
    }

    #[test]
    fn full_translation_is_equivalence_preserving_on_all_platforms() {
        for qc in template_cases() {
            for p in Platform::ALL {
                let out = translate_to_platform(&qc, p).unwrap();
                assert!(
                    circuits_equivalent(&qc, &out, 1e-8).unwrap(),
                    "{:?} on {p}: translation wrong",
                    qc.ops()[0].gate
                );
                assert!(
                    p.native_gates().platform() == p
                        && out.iter().all(|op| p.native_gates().contains(op.gate)),
                    "{:?} on {p}: output not native: {:?}",
                    qc.ops()[0].gate,
                    out.count_ops()
                );
            }
        }
    }

    #[test]
    fn translated_composite_circuits_are_native() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0)
            .cx(0, 1)
            .t(1)
            .swap(1, 2)
            .cp(0.7, 0, 2)
            .ccx(0, 1, 2)
            .rzz(0.3, 0, 1)
            .measure_all();
        for dev in Device::all() {
            let out = translate_to_platform(&qc, dev.platform()).unwrap();
            assert!(
                dev.check_native_gates(&out),
                "{}: {:?}",
                dev.name(),
                out.count_ops()
            );
            assert!(
                circuits_equivalent(&qc, &out, 1e-8).unwrap(),
                "{}: translation wrong",
                dev.name()
            );
        }
    }

    #[test]
    fn measures_and_barriers_survive_translation() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).barrier().cx(0, 1).measure_all();
        for p in Platform::ALL {
            let out = translate_to_platform(&qc, p).unwrap();
            assert_eq!(out.count_ops()["measure"], 2, "{p}");
            assert_eq!(out.count_ops()["barrier"], 2, "{p}");
        }
    }

    #[test]
    fn translator_pass_requires_device() {
        let qc = QuantumCircuit::new(1);
        let err = BasisTranslator
            .apply(&qc, &PassContext::device_free())
            .unwrap_err();
        assert!(matches!(err, PassError::DeviceRequired { .. }));
    }

    #[test]
    fn translation_is_idempotent() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1).t(1);
        for p in Platform::ALL {
            let once = translate_to_platform(&qc, p).unwrap();
            let twice = translate_to_platform(&once, p).unwrap();
            assert_eq!(once, twice, "{p}");
        }
    }
}
