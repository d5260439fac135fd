//! OpenQASM 2 serialization.
//!
//! [`to_qasm`] emits any circuit in this IR as OpenQASM 2.0;
//! [`from_qasm`] parses the dialect back (the subset this crate emits:
//! one quantum register `q`, one classical register `c`, and the gate set
//! of [`Gate`]). Round-tripping is exercised by property tests.

use crate::circuit::{Operation, QuantumCircuit, Qubit};
use crate::error::CircuitError;
use crate::gate::Gate;
use std::f64::consts::PI;

/// Emits the circuit as an OpenQASM 2.0 program.
///
/// # Examples
///
/// ```
/// use qrc_circuit::{QuantumCircuit, qasm};
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0).cx(0, 1).measure_all();
/// let text = qasm::to_qasm(&qc);
/// assert!(text.contains("cx q[0],q[1];"));
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back.len(), qc.len());
/// ```
pub fn to_qasm(circuit: &QuantumCircuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    out.push_str(&format!("creg c[{}];\n", circuit.num_qubits()));
    for op in circuit.iter() {
        out.push_str(&format_op(op));
        out.push('\n');
    }
    out
}

fn format_op(op: &Operation) -> String {
    let qubits = op
        .qubits
        .iter()
        .map(|q| format!("q[{}]", q.0))
        .collect::<Vec<_>>()
        .join(",");
    match op.gate {
        Gate::Measure => {
            let q = op.qubits[0].0;
            format!("measure q[{q}] -> c[{q}];")
        }
        Gate::Barrier => format!("barrier {qubits};"),
        g => {
            let params = g.params();
            if params.is_empty() {
                format!("{} {qubits};", g.name())
            } else {
                let ps = params
                    .iter()
                    .map(|p| format_angle(*p))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{}({ps}) {qubits};", g.name())
            }
        }
    }
}

/// Finds the `k*pi/denom` fraction [`to_qasm`] would emit for `theta`,
/// if any (first matching denominator, mirroring the emission order).
fn pi_fraction(theta: f64) -> Option<(f64, f64)> {
    const TOL: f64 = 1e-12;
    for denom in [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0] {
        let unit = PI / denom;
        let k = (theta / unit).round();
        if k != 0.0 && (theta - k * unit).abs() < TOL {
            return Some((k, denom));
        }
    }
    None
}

/// The exact `f64` an angle becomes after one QASM round trip.
///
/// [`to_qasm`] snaps angles within 1e-12 of a π fraction to exact
/// `k*pi/d` text, and emits every other angle with 17 fractional
/// digits; parsing that text can therefore move the value once (π
/// snapping, or decimal truncation for small magnitudes), after which
/// the emitted text — and hence the value — is a fixed point. This
/// function applies exactly one emit→parse cycle, so it is idempotent
/// and is the normal form used by `QuantumCircuit::structural_hash`
/// for content addressing: a circuit and its QASM round trip hash
/// identically. Non-finite angles are returned unchanged (they do not
/// survive QASM serialization at all).
pub fn canonical_angle(theta: f64) -> f64 {
    parse_angle(&format_angle(theta), 0).unwrap_or(theta)
}

/// Formats an angle, preferring exact `pi` fractions when they apply.
fn format_angle(theta: f64) -> String {
    if let Some((k, denom)) = pi_fraction(theta) {
        let num = if k == 1.0 {
            "pi".to_string()
        } else if k == -1.0 {
            "-pi".to_string()
        } else {
            format!("{k}*pi")
        };
        return if denom == 1.0 {
            num
        } else {
            format!("{num}/{denom}")
        };
    }
    format!("{theta:.17}")
}

/// Parses the OpenQASM 2 dialect emitted by [`to_qasm`].
///
/// Supports: `OPENQASM`/`include` headers, a single `qreg q[n]`, a single
/// `creg`, every gate mnemonic of [`Gate`], `measure q[i] -> c[j]`, and
/// `barrier` statements. Comments (`//`) and blank lines are ignored.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed input, unknown gates, or
/// out-of-range qubit references.
pub fn from_qasm(text: &str) -> Result<QuantumCircuit, CircuitError> {
    let mut circuit: Option<QuantumCircuit> = None;
    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // Several statements may share a line.
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, &mut circuit)?;
        }
    }
    circuit.ok_or(CircuitError::Parse {
        line: 0,
        message: "no qreg declaration found".into(),
    })
}

fn parse_statement(
    stmt: &str,
    line: usize,
    circuit: &mut Option<QuantumCircuit>,
) -> Result<(), CircuitError> {
    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") || stmt.starts_with("creg") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let n = parse_bracket_index(rest.trim(), line)?;
        *circuit = Some(QuantumCircuit::new(n));
        return Ok(());
    }
    let qc = circuit.as_mut().ok_or_else(|| CircuitError::Parse {
        line,
        message: "statement before qreg declaration".into(),
    })?;

    if let Some(rest) = stmt.strip_prefix("measure") {
        let (lhs, _rhs) = rest.split_once("->").ok_or_else(|| CircuitError::Parse {
            line,
            message: "measure without `->`".into(),
        })?;
        let q = parse_bracket_index(lhs.trim(), line)?;
        qc.push(Operation::new(Gate::Measure, &[Qubit(q)]))
            .map_err(|e| CircuitError::Parse {
                line,
                message: e.to_string(),
            })?;
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("barrier") {
        for part in rest.trim().split(',') {
            let q = parse_bracket_index(part.trim(), line)?;
            qc.push(Operation::new(Gate::Barrier, &[Qubit(q)]))
                .map_err(|e| CircuitError::Parse {
                    line,
                    message: e.to_string(),
                })?;
        }
        return Ok(());
    }

    // Generic gate: name[(p1,p2,...)] q[a],q[b],...
    let (head, args) = match stmt.find([' ', '\t']) {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
        None => {
            return Err(CircuitError::Parse {
                line,
                message: format!("malformed statement `{stmt}`"),
            })
        }
    };
    let (name, params) = match head.find('(') {
        Some(open) => {
            let close = head
                .rfind(')')
                .filter(|&close| close > open)
                .ok_or_else(|| CircuitError::Parse {
                    line,
                    message: "unbalanced parentheses".into(),
                })?;
            let plist = &head[open + 1..close];
            let params = plist
                .split(',')
                .map(|p| parse_angle(p.trim(), line))
                .collect::<Result<Vec<f64>, _>>()?;
            (&head[..open], params)
        }
        None => (head, Vec::new()),
    };
    let qubits: Vec<Qubit> = args
        .split(',')
        .map(|a| parse_bracket_index(a.trim(), line).map(Qubit))
        .collect::<Result<Vec<_>, _>>()?;
    let gate = gate_from_name(name, &params).ok_or_else(|| CircuitError::Parse {
        line,
        message: format!("unknown gate `{name}` with {} params", params.len()),
    })?;
    if gate.num_qubits() != qubits.len() {
        return Err(CircuitError::Parse {
            line,
            message: format!(
                "gate `{name}` expects {} qubits, got {}",
                gate.num_qubits(),
                qubits.len()
            ),
        });
    }
    if let Some(dup) = qubits
        .iter()
        .enumerate()
        .find_map(|(i, q)| qubits[i + 1..].contains(q).then_some(q))
    {
        return Err(CircuitError::Parse {
            line,
            message: format!("gate `{name}` uses q[{}] twice", dup.0),
        });
    }
    qc.push(Operation::new(gate, &qubits))
        .map_err(|e| CircuitError::Parse {
            line,
            message: e.to_string(),
        })
}

/// Parses `name[idx]`, returning `idx`.
fn parse_bracket_index(text: &str, line: usize) -> Result<u32, CircuitError> {
    let open = text.find('[').ok_or_else(|| CircuitError::Parse {
        line,
        message: format!("expected `[index]` in `{text}`"),
    })?;
    let close = text
        .rfind(']')
        .filter(|&close| close > open)
        .ok_or_else(|| CircuitError::Parse {
            line,
            message: format!("unbalanced bracket in `{text}`"),
        })?;
    text[open + 1..close]
        .parse::<u32>()
        .map_err(|_| CircuitError::Parse {
            line,
            message: format!("invalid index in `{text}`"),
        })
}

/// Parses an angle expression: decimal literals and `k*pi/d` forms.
/// Only finite angles are accepted: OpenQASM 2 has no `nan` or `inf`.
fn parse_angle(text: &str, line: usize) -> Result<f64, CircuitError> {
    let err = |msg: String| CircuitError::Parse { line, message: msg };
    let t = text.replace(' ', "");
    if t.is_empty() {
        return Err(err("empty angle".into()));
    }
    // Split on '/', evaluate numerator (may contain `*pi`).
    let (num_text, denom) = match t.split_once('/') {
        Some((n, d)) => {
            let d: f64 = d
                .parse()
                .map_err(|_| err(format!("invalid denominator in `{text}`")))?;
            (n.to_string(), d)
        }
        None => (t.clone(), 1.0),
    };
    let num = if let Some(k) = num_text.strip_suffix("*pi") {
        k.parse::<f64>()
            .map_err(|_| err(format!("invalid coefficient in `{text}`")))?
            * PI
    } else if num_text == "pi" {
        PI
    } else if num_text == "-pi" {
        -PI
    } else {
        num_text
            .parse::<f64>()
            .map_err(|_| err(format!("invalid angle `{text}`")))?
    };
    let angle = num / denom;
    if !angle.is_finite() {
        return Err(err(format!("angle `{text}` is not a finite number")));
    }
    Ok(angle)
}

fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    use Gate::*;
    let p = |i: usize| params.get(i).copied();
    Some(match (name, params.len()) {
        ("id", 0) => I,
        ("x", 0) => X,
        ("y", 0) => Y,
        ("z", 0) => Z,
        ("h", 0) => H,
        ("s", 0) => S,
        ("sdg", 0) => Sdg,
        ("t", 0) => T,
        ("tdg", 0) => Tdg,
        ("sx", 0) => Sx,
        ("sxdg", 0) => Sxdg,
        ("rx", 1) => Rx(p(0)?),
        ("ry", 1) => Ry(p(0)?),
        ("rz", 1) => Rz(p(0)?),
        ("p", 1) | ("u1", 1) => P(p(0)?),
        ("u", 3) | ("u3", 3) => U(p(0)?, p(1)?, p(2)?),
        ("cx", 0) | ("CX", 0) => Cx,
        ("cy", 0) => Cy,
        ("cz", 0) => Cz,
        ("ch", 0) => Ch,
        ("swap", 0) => Swap,
        ("iswap", 0) => ISwap,
        ("ecr", 0) => Ecr,
        ("cp", 1) | ("cu1", 1) => Cp(p(0)?),
        ("crx", 1) => Crx(p(0)?),
        ("cry", 1) => Cry(p(0)?),
        ("crz", 1) => Crz(p(0)?),
        ("rxx", 1) => Rxx(p(0)?),
        ("ryy", 1) => Ryy(p(0)?),
        ("rzz", 1) => Rzz(p(0)?),
        ("ccx", 0) => Ccx,
        ("cswap", 0) => Cswap,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_header_and_registers() {
        let qc = QuantumCircuit::new(3);
        let text = to_qasm(&qc);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[3];"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0)
            .cx(0, 1)
            .rz(0.12345, 1)
            .cp(PI / 8.0, 1, 2)
            .ccx(0, 1, 2)
            .measure_all();
        let back = from_qasm(&to_qasm(&qc)).unwrap();
        assert_eq!(back.num_qubits(), 3);
        assert_eq!(back.len(), qc.len());
        for (a, b) in qc.iter().zip(back.iter()) {
            assert!(a.gate.approx_eq(b.gate), "{:?} != {:?}", a.gate, b.gate);
            assert_eq!(a.qubits, b.qubits);
        }
    }

    #[test]
    fn angle_formatting_uses_pi_fractions() {
        assert_eq!(format_angle(PI), "pi");
        assert_eq!(format_angle(-PI), "-pi");
        assert_eq!(format_angle(PI / 2.0), "pi/2");
        assert_eq!(format_angle(3.0 * PI / 4.0), "3*pi/4");
        // Non-fraction angles are emitted as decimals that parse back.
        let s = format_angle(0.1234);
        assert!((parse_angle(&s, 1).unwrap() - 0.1234).abs() < 1e-15);
    }

    #[test]
    fn parse_angle_forms() {
        assert!((parse_angle("pi", 1).unwrap() - PI).abs() < 1e-15);
        assert!((parse_angle("-pi", 1).unwrap() + PI).abs() < 1e-15);
        assert!((parse_angle("pi/2", 1).unwrap() - PI / 2.0).abs() < 1e-15);
        assert!((parse_angle("3*pi/4", 1).unwrap() - 2.356194490192345).abs() < 1e-12);
        assert!((parse_angle("0.5", 1).unwrap() - 0.5).abs() < 1e-15);
        assert!(parse_angle("nonsense", 1).is_err());
    }

    #[test]
    fn parse_rejects_unknown_gate() {
        let text = "qreg q[2];\nfoo q[0];\n";
        let err = from_qasm(text).unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_missing_qreg() {
        assert!(from_qasm("h q[0];").is_err());
        assert!(from_qasm("").is_err());
    }

    #[test]
    fn malformed_statements_are_parse_errors_not_panics() {
        for body in [
            "h q]0[;",
            "rz)0.5( q[0];",
            "measure q]1[ -> c[0];",
            "cx q[0],q[0];",
            "rz(nan) q[0];",
            "rz(inf) q[0];",
            "rz(-inf) q[0];",
            "rz(1/0) q[0];",
        ] {
            let text = format!("OPENQASM 2.0;\nqreg q[2];\n{body}\n");
            let err = from_qasm(&text).unwrap_err();
            assert!(
                matches!(err, CircuitError::Parse { line: 3, .. }),
                "`{body}`: {err:?}"
            );
        }
        let err = from_qasm("qreg]2[;").unwrap_err();
        assert!(
            matches!(err, CircuitError::Parse { line: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn parse_rejects_bad_arity() {
        let text = "qreg q[2];\ncx q[0];\n";
        assert!(from_qasm(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "// a comment\nOPENQASM 2.0;\n\nqreg q[1];\nh q[0]; // trailing\n";
        let qc = from_qasm(text).unwrap();
        assert_eq!(qc.len(), 1);
        assert_eq!(qc.ops()[0].gate, Gate::H);
    }

    #[test]
    fn measure_round_trip() {
        let text = "qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[1];\n";
        let qc = from_qasm(text).unwrap();
        assert_eq!(qc.ops()[0].gate, Gate::Measure);
        assert_eq!(qc.ops()[0].qubits[0], Qubit(1));
    }

    #[test]
    fn barrier_round_trip() {
        let mut qc = QuantumCircuit::new(2);
        qc.barrier();
        let back = from_qasm(&to_qasm(&qc)).unwrap();
        assert_eq!(back.count_ops()["barrier"], 2);
    }
}
