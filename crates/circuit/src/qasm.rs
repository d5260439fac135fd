//! OpenQASM 2 serialization.
//!
//! [`to_qasm`] emits any circuit in this IR as OpenQASM 2.0;
//! [`from_qasm`] parses the dialect back (the subset this crate emits:
//! one quantum register `q`, one classical register `c`, and the gate set
//! of [`Gate`]). Round-tripping is exercised by property tests.
//!
//! Both run in one pass with no allocation per operation: [`to_qasm`]
//! appends to one string and formats angles with an exact integer
//! formatter, and [`from_qasm`] keeps each statement's parameters and
//! qubits on the stack.

use crate::circuit::{Operation, QuantumCircuit, Qubit};
use crate::error::CircuitError;
use crate::gate::Gate;
use std::f64::consts::PI;
use std::fmt::Write as _;

/// Emits the circuit as an OpenQASM 2.0 program.
///
/// The returned string has no spare capacity (`capacity() == len()`),
/// so a cached program holds only its own bytes.
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
/// assert_eq!(text.capacity(), text.len());
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back.len(), qc.len());
/// ```
pub fn to_qasm(circuit: &QuantumCircuit) -> String {
    // An op with one angle takes about 30 bytes; reserve for that and
    // trim once at the end.
    let mut out = String::with_capacity(64 + 32 * circuit.len());
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[");
    push_u64(&mut out, circuit.num_qubits().into());
    out.push_str("];\ncreg c[");
    push_u64(&mut out, circuit.num_qubits().into());
    out.push_str("];\n");
    for op in circuit.iter() {
        push_op(&mut out, op);
    }
    out.shrink_to_fit();
    out
}

/// Appends one operation as a statement line.
fn push_op(out: &mut String, op: &Operation) {
    if op.gate == Gate::Measure {
        let q: u64 = op.qubits[0].0.into();
        out.push_str("measure q[");
        push_u64(out, q);
        out.push_str("] -> c[");
        push_u64(out, q);
        out.push_str("];\n");
        return;
    }
    out.push_str(op.gate.name());
    let params = op.gate.params();
    for (i, &theta) in params.iter().enumerate() {
        out.push(if i == 0 { '(' } else { ',' });
        push_angle(out, theta);
    }
    if !params.is_empty() {
        out.push(')');
    }
    out.push(' ');
    for (i, q) in op.qubits.iter().enumerate() {
        out.push_str(if i == 0 { "q[" } else { ",q[" });
        push_u64(out, q.0.into());
        out.push(']');
    }
    out.push_str(";\n");
}

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends an integral `f64` as `{}` prints it.
fn push_integral(out: &mut String, k: f64) {
    if k.abs() < 9_007_199_254_740_992.0 {
        if k < 0.0 {
            out.push('-');
        }
        push_u64(out, k.abs() as u64);
    } else {
        let _ = write!(out, "{k}");
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
///
/// Only angles below 0.1 in magnitude go through text: `k*pi/d` parses
/// to `(k*PI)/d`, and 17 fractional digits of any larger angle hold at
/// least 17 significant digits, which round-trip every `f64`.
pub fn canonical_angle(theta: f64) -> f64 {
    if let Some((k, denom)) = pi_fraction(theta) {
        let snapped = (k * PI) / denom;
        return if snapped.is_finite() { snapped } else { theta };
    }
    if !theta.is_finite() || theta.abs() >= 0.1 {
        return theta;
    }
    match Fixed17::new(theta) {
        Some(text) => text.as_str().parse().unwrap_or(theta),
        None => theta,
    }
}

/// Appends an angle, preferring exact `pi` fractions when they apply.
fn push_angle(out: &mut String, theta: f64) {
    if let Some((k, denom)) = pi_fraction(theta) {
        if k == 1.0 {
            out.push_str("pi");
        } else if k == -1.0 {
            out.push_str("-pi");
        } else {
            push_integral(out, k);
            out.push_str("*pi");
        }
        if denom != 1.0 {
            out.push('/');
            push_integral(out, denom);
        }
        return;
    }
    match Fixed17::new(theta) {
        Some(text) => out.push_str(text.as_str()),
        None => {
            let _ = write!(out, "{theta:.17}");
        }
    }
}

/// `10^17`, the scale of 17 fractional digits.
const E17: u64 = 100_000_000_000_000_000;

/// An angle as `format!("{theta:.17}")` prints it, computed exactly in
/// integers: the digits sit right-aligned in `buf` from `start`.
struct Fixed17 {
    buf: [u8; 40],
    start: usize,
}

impl Fixed17 {
    /// Formats `theta`, or returns `None` for non-finite values and
    /// |θ| ≥ 2^64, whose integer part does not fit a `u64` (callers
    /// format those with `write!`).
    fn new(theta: f64) -> Option<Fixed17> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        let magnitude = theta.abs();
        if !magnitude.is_finite() || magnitude >= TWO_POW_64 {
            return None;
        }
        // Both parts are exact: `trunc` drops only fraction bits.
        let int = magnitude.trunc();
        let mut whole = int as u64;
        let mut frac = frac_e17(magnitude - int);
        if frac == E17 {
            whole += 1;
            frac = 0;
        }
        let mut text = Fixed17 {
            buf: [0; 40],
            start: 40,
        };
        for _ in 0..17 {
            text.prepend(b'0' + (frac % 10) as u8);
            frac /= 10;
        }
        text.prepend(b'.');
        loop {
            text.prepend(b'0' + (whole % 10) as u8);
            whole /= 10;
            if whole == 0 {
                break;
            }
        }
        if theta.is_sign_negative() {
            text.prepend(b'-');
        }
        Some(text)
    }

    fn prepend(&mut self, byte: u8) {
        self.start -= 1;
        self.buf[self.start] = byte;
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("ASCII digits")
    }
}

/// `frac * 10^17` rounded to an integer, ties to even (as `core::fmt`
/// rounds), for `0 <= frac < 1`. Exact: `frac = m / 2^shift`, and
/// `m * 10^17 < 2^110` fits a `u128`.
fn frac_e17(frac: f64) -> u64 {
    let bits = frac.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let mantissa = bits & ((1 << 52) - 1);
    let (m, shift) = if biased == 0 {
        (mantissa, 1074)
    } else {
        (mantissa | 1 << 52, 1075 - biased)
    };
    // Below 2^-75 the product stays under half a unit: it rounds to 0.
    if shift >= 128 {
        return 0;
    }
    let scaled = u128::from(m) * u128::from(E17);
    let quotient = (scaled >> shift) as u64;
    let remainder = scaled & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if remainder > half || (remainder == half && quotient % 2 == 1) {
        quotient + 1
    } else {
        quotient
    }
}

/// Parses the OpenQASM 2 dialect emitted by [`to_qasm`].
///
/// Supports: `OPENQASM`/`include` headers, a single `qreg q[n]`, a single
/// `creg`, every gate mnemonic of [`Gate`], `measure q[i] -> c[j]`, and
/// `barrier` statements. Comments (`//`) and blank lines are ignored.
/// Parameter lists may contain spaces (`u3(0.1, pi / 2, pi) q[0];`),
/// and a parameterised gate name ends at its closing parenthesis
/// (`rz(0.5)q[0];`).
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed input, unknown gates, or
/// out-of-range qubit references.
pub fn from_qasm(text: &str) -> Result<QuantumCircuit, CircuitError> {
    let mut circuit: Option<QuantumCircuit> = None;
    let bytes = text.as_bytes();
    let mut line = 1;
    let mut start = 0;
    let mut i = 0;
    // Statements end at `;` or a line break; a comment runs from `//`
    // to the end of its line.
    while i < bytes.len() {
        match bytes[i] {
            b';' | b'\n' => {
                parse_statement(&text[start..i], line, &mut circuit)?;
                if bytes[i] == b'\n' {
                    line += 1;
                }
                start = i + 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                parse_statement(&text[start..i], line, &mut circuit)?;
                i = text[i..].find('\n').map_or(bytes.len(), |n| i + n);
                start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    parse_statement(&text[start..], line, &mut circuit)?;
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
    let stmt = stmt.trim();
    if stmt.is_empty()
        || stmt.starts_with("OPENQASM")
        || stmt.starts_with("include")
        || stmt.starts_with("creg")
    {
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
    let push = |qc: &mut QuantumCircuit, gate: Gate, qubits: &[Qubit]| {
        qc.push(Operation::new(gate, qubits))
            .map_err(|e| CircuitError::Parse {
                line,
                message: e.to_string(),
            })
    };

    if let Some(rest) = stmt.strip_prefix("measure") {
        let (lhs, _rhs) = rest.split_once("->").ok_or_else(|| CircuitError::Parse {
            line,
            message: "measure without `->`".into(),
        })?;
        let q = parse_bracket_index(lhs.trim(), line)?;
        return push(qc, Gate::Measure, &[Qubit(q)]);
    }
    if let Some(rest) = stmt.strip_prefix("barrier") {
        for part in split_byte(rest.trim(), b',') {
            let q = parse_bracket_index(part.trim(), line)?;
            push(qc, Gate::Barrier, &[Qubit(q)])?;
        }
        return Ok(());
    }

    // Generic gate: name[(p1,p2,...)] q[a],q[b],...
    // A parameterised name ends at its closing parenthesis, so the list
    // may hold spaces; any other name ends at the first space or tab.
    let (name, plist, args) = match stmt.bytes().position(|b| matches!(b, b' ' | b'\t' | b'(')) {
        Some(open) if stmt.as_bytes()[open] == b'(' => {
            let close = stmt.as_bytes()[open..]
                .iter()
                .position(|&b| b == b')')
                .ok_or_else(|| CircuitError::Parse {
                    line,
                    message: "unbalanced parentheses".into(),
                })?;
            let close = open + close;
            (
                &stmt[..open],
                Some(&stmt[open + 1..close]),
                stmt[close + 1..].trim(),
            )
        }
        Some(space) => (&stmt[..space], None, stmt[space..].trim()),
        None => {
            return Err(CircuitError::Parse {
                line,
                message: format!("malformed statement `{stmt}`"),
            })
        }
    };
    // At most three of each are kept; the counts go on, so an oversized
    // list still fails on its first bad entry, then as an unknown gate.
    let mut params = [0.0; 3];
    let mut num_params = 0;
    for p in plist.into_iter().flat_map(|plist| split_byte(plist, b',')) {
        let theta = parse_angle(p.trim(), line)?;
        if let Some(slot) = params.get_mut(num_params) {
            *slot = theta;
        }
        num_params += 1;
    }
    let mut qubits = [Qubit(0); 3];
    let mut num_qubits = 0;
    for a in split_byte(args, b',') {
        let q = parse_bracket_index(a.trim(), line)?;
        if let Some(slot) = qubits.get_mut(num_qubits) {
            *slot = Qubit(q);
        }
        num_qubits += 1;
    }
    let gate = params
        .get(..num_params)
        .and_then(|params| gate_from_name(name, params))
        .ok_or_else(|| CircuitError::Parse {
            line,
            message: format!("unknown gate `{name}` with {num_params} params"),
        })?;
    if gate.num_qubits() != num_qubits {
        return Err(CircuitError::Parse {
            line,
            message: format!(
                "gate `{name}` expects {} qubits, got {num_qubits}",
                gate.num_qubits(),
            ),
        });
    }
    let qubits = &qubits[..num_qubits];
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
    push(qc, gate, qubits)
}

/// Splits `text` at every `sep` byte, as `str::split` does at an ASCII
/// separator. The fields here are a few bytes long, so a plain loop
/// beats a `memchr` call per field.
fn split_byte(text: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let field = rest?;
        match field.bytes().position(|b| b == sep) {
            Some(at) => {
                rest = Some(&field[at + 1..]);
                Some(&field[..at])
            }
            None => {
                rest = None;
                Some(field)
            }
        }
    })
}

/// Parses `name[idx]`, returning `idx`.
fn parse_bracket_index(text: &str, line: usize) -> Result<u32, CircuitError> {
    let bytes = text.as_bytes();
    let open = bytes
        .iter()
        .position(|&b| b == b'[')
        .ok_or_else(|| CircuitError::Parse {
            line,
            message: format!("expected `[index]` in `{text}`"),
        })?;
    let close = bytes
        .iter()
        .rposition(|&b| b == b']')
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
/// Spaces are ignored. Only finite angles are accepted: OpenQASM 2 has
/// no `nan` or `inf`.
fn parse_angle(text: &str, line: usize) -> Result<f64, CircuitError> {
    let err = |message: String| CircuitError::Parse { line, message };
    // Only an angle with spaces inside (`pi / 2`) is copied; emitted
    // angles have none.
    let compact: String;
    let t = if text.bytes().any(|b| b == b' ') {
        compact = text.replace(' ', "");
        &compact
    } else {
        text
    };
    if t.is_empty() {
        return Err(err("empty angle".into()));
    }
    // Split on '/', evaluate numerator (may contain `*pi`).
    let slash = t.bytes().position(|b| b == b'/');
    let (num_text, denom) = match slash.map(|at| (&t[..at], &t[at + 1..])) {
        Some((n, d)) => {
            let d: f64 = d
                .parse()
                .map_err(|_| err(format!("invalid denominator in `{text}`")))?;
            (n, d)
        }
        None => (t, 1.0),
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

    fn angle_text(theta: f64) -> String {
        let mut out = String::new();
        push_angle(&mut out, theta);
        out
    }

    #[test]
    fn angle_formatting_uses_pi_fractions() {
        assert_eq!(angle_text(PI), "pi");
        assert_eq!(angle_text(-PI), "-pi");
        assert_eq!(angle_text(PI / 2.0), "pi/2");
        assert_eq!(angle_text(3.0 * PI / 4.0), "3*pi/4");
        assert_eq!(angle_text(-5.0 * PI / 16.0), "-5*pi/16");
        // Non-fraction angles are emitted as decimals that parse back.
        let s = angle_text(0.1234);
        assert!((parse_angle(&s, 1).unwrap() - 0.1234).abs() < 1e-15);
        assert_eq!(angle_text(f64::NAN), "NaN");
        assert_eq!(angle_text(f64::NEG_INFINITY), "-inf");
    }

    /// The integer formatter against `core::fmt` on 200,000 random bit
    /// patterns, 200,000 angles of every magnitude below 2^64 and the
    /// cases that stress its edges: ties at the 17th digit (odd
    /// multiples of 2^-18), carries into the integer part, ±0,
    /// subnormals and the largest values below 2^64.
    #[test]
    fn fixed17_matches_core_fmt() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut angles = vec![
            0.0,
            -0.0,
            0.5,
            0.1,
            -0.1,
            1.0 - f64::EPSILON / 2.0,
            0.999_999_999_999_999_99,
            9.999_999_999_999_999,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            18_446_744_073_709_549_568.0,
            -18_446_744_073_709_549_568.0,
            4_503_599_627_370_495.5,
            PI,
            -PI / 3.0,
        ];
        for m in 1..2_000u64 {
            // Odd multiples of 2^-18 are exact ties at the 17th digit.
            let tie = (2 * m + 1) as f64 * 2f64.powi(-18);
            angles.extend([tie, -tie, tie + 1024.0]);
        }
        for _ in 0..200_000 {
            angles.push(f64::from_bits(rng.gen::<u64>()));
            let magnitude = 2f64.powf(rng.gen_range(-80.0..64.0));
            angles.push(if rng.gen::<bool>() {
                magnitude
            } else {
                -magnitude
            });
        }
        let mut checked = 0;
        for theta in angles {
            let expected = format!("{theta:.17}");
            match Fixed17::new(theta) {
                Some(text) => {
                    assert_eq!(text.as_str(), expected, "{theta:e}");
                    checked += 1;
                }
                None => assert!(
                    !theta.is_finite() || theta.abs() >= 18_446_744_073_709_551_616.0,
                    "{theta:e}"
                ),
            }
        }
        assert!(checked > 200_000, "{checked}");
    }

    #[test]
    fn emitted_text_has_no_spare_capacity() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0)
            .rz(0.123, 1)
            .u(0.5, PI, -PI / 4.0, 2)
            .ccx(0, 1, 2)
            .measure_all();
        let text = to_qasm(&qc);
        assert_eq!(text.capacity(), text.len());
        let empty = to_qasm(&QuantumCircuit::new(0));
        assert_eq!(empty.capacity(), empty.len());
    }

    /// Spaces inside a parameter list, and none between it and the
    /// qubits, parse to the same circuit as the space-free form.
    #[test]
    fn parameter_lists_may_contain_spaces() {
        for (spaced, compact) in [
            ("u(0, 0, 0) q[0];", "u(0,0,0) q[0];"),
            ("u3(0.1, pi/2, pi) q[0];", "u3(0.1,pi/2,pi) q[0];"),
            ("rz(pi / 2) q[0];", "rz(pi/2) q[0];"),
            ("rz(0.5)q[0];", "rz(0.5) q[0];"),
            ("rxx( -3*pi/4 )\tq[1], q[0];", "rxx(-3*pi/4) q[1],q[0];"),
        ] {
            let parse = |body: &str| from_qasm(&format!("OPENQASM 2.0;\nqreg q[2];\n{body}\n"));
            let expected = parse(compact).unwrap();
            assert_eq!(parse(spaced).unwrap(), expected, "`{spaced}`");
        }
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
