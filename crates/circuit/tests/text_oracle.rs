//! The one-pass QASM routines against the routines they replaced.
//!
//! `oracle` keeps the earlier `format!`/`collect`/`join` emitter, the
//! allocating parser (with the one fix made since: a parameterised gate
//! name ends at its closing parenthesis, so parameter lists may hold
//! spaces) and the text round trip that `canonical_angle` used to take.
//! Every property requires the library to agree with it bit for bit:
//! emitted bytes, parse results (the circuit, or the error, its message
//! and its line), canonical angles and structural hashes.

use proptest::prelude::*;
use qrc_circuit::{qasm, strategies, Gate, Operation, QuantumCircuit, Qubit};
use std::f64::consts::PI;

mod oracle {
    use qrc_circuit::{CircuitError, Gate, Operation, QuantumCircuit, Qubit};
    use std::f64::consts::PI;

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

    pub fn canonical_angle(theta: f64) -> f64 {
        parse_angle(&format_angle(theta), 0).unwrap_or(theta)
    }

    pub fn format_angle(theta: f64) -> String {
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

    pub fn structural_hash(circuit: &QuantumCircuit) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&circuit.num_qubits().to_le_bytes());
        for op in circuit.iter() {
            let name = op.gate.name();
            eat(&[name.len() as u8]);
            eat(name.as_bytes());
            let params: Vec<f64> = op.gate.params().to_vec();
            eat(&[params.len() as u8]);
            for p in params {
                eat(&canonical_angle(p).to_bits().to_le_bytes());
            }
            eat(&[op.qubits.len() as u8]);
            for q in op.qubits.iter() {
                eat(&q.0.to_le_bytes());
            }
        }
        h
    }

    pub fn from_qasm(text: &str) -> Result<QuantumCircuit, CircuitError> {
        let mut circuit: Option<QuantumCircuit> = None;
        for (line_no, raw) in text.lines().enumerate() {
            let line_no = line_no + 1;
            let line = raw.split("//").next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
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

        // The fix: a `(` before the first space or tab opens a parameter
        // list, and the head ends at the `)` that closes it.
        let ws = stmt.find([' ', '\t']);
        let (head, args) = match stmt.find('(').filter(|&open| ws.is_none_or(|ws| open < ws)) {
            Some(open) => {
                let close = open
                    + stmt[open..].find(')').ok_or_else(|| CircuitError::Parse {
                        line,
                        message: "unbalanced parentheses".into(),
                    })?;
                (&stmt[..=close], stmt[close + 1..].trim())
            }
            None => match ws {
                Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
                None => {
                    return Err(CircuitError::Parse {
                        line,
                        message: format!("malformed statement `{stmt}`"),
                    })
                }
            },
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

    fn parse_angle(text: &str, line: usize) -> Result<f64, CircuitError> {
        let err = |msg: String| CircuitError::Parse { line, message: msg };
        let t = text.replace(' ', "");
        if t.is_empty() {
            return Err(err("empty angle".into()));
        }
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
}

/// Angles that stress the emitter and the canonical form: any bit
/// pattern (NaN, infinities, subnormals, huge values), ±0, values near
/// every π fraction the emitter snaps (inside and outside its 1e-12
/// tolerance), values below and around the 0.1 threshold, ties at the
/// 17th digit, and ordinary angles.
fn tricky_angle() -> impl Strategy<Value = f64> {
    const DENOMS: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0];
    let step = |x: f64, n: i64| f64::from_bits((x.to_bits() as i64 + n) as u64);
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1 << 52, any::<bool>()).prop_map(|(m, neg)| {
            let x = f64::from_bits(m);
            if neg {
                -x
            } else {
                x
            }
        }),
        prop_oneof![Just(0.0), Just(-0.0), Just(0.1), Just(-0.1)],
        (-64i64..=64, any::<bool>()).prop_map(move |(n, neg)| {
            let x = step(0.1, n);
            if neg {
                -x
            } else {
                x
            }
        }),
        (-40i32..=40, 0usize..7, -3e-12..3e-12f64)
            .prop_map(|(k, d, eps)| k as f64 * PI / DENOMS[d] + eps),
        (-40i32..=40, 0usize..7, -4i64..=4)
            .prop_map(move |(k, d, n)| step(k as f64 * PI / DENOMS[d], n)),
        -1e-3..1e-3f64,
        -0.1..0.1f64,
        // Odd multiples of 2^-18 tie at the 17th fractional digit.
        (0u64..1 << 24, any::<bool>()).prop_map(|(m, neg)| {
            let tie = (2 * m + 1) as f64 * 2f64.powi(-18);
            if neg {
                -tie
            } else {
                tie
            }
        }),
        -1e30..1e30f64,
        (-300i32..300, any::<bool>()).prop_map(|(e, neg)| {
            let x = 10f64.powi(e) * 1.2345678901234567;
            if neg {
                -x
            } else {
                x
            }
        }),
        strategies::angle(),
    ]
}

/// A one-qubit rotation, a `U`, or a two-qubit rotation on `angles`.
fn gate_with(kind: usize, a: f64, b: f64, c: f64) -> Gate {
    match kind % 6 {
        0 => Gate::Rz(a),
        1 => Gate::U(a, b, c),
        2 => Gate::Rxx(a),
        3 => Gate::Cp(a),
        4 => Gate::Rx(a),
        _ => Gate::Crz(a),
    }
}

fn tricky_circuit() -> impl Strategy<Value = QuantumCircuit> {
    (
        strategies::circuit(1..=5, 16),
        proptest::collection::vec(
            (0usize..6, tricky_angle(), tricky_angle(), tricky_angle()),
            0..12,
        ),
        any::<bool>(),
    )
        .prop_map(|(mut qc, extra, tail)| {
            let width = qc.num_qubits();
            for (kind, a, b, c) in extra {
                let gate = gate_with(kind, a, b, c);
                let qubits: Vec<Qubit> = (0..gate.num_qubits() as u32).map(Qubit).collect();
                if gate.num_qubits() as u32 <= width {
                    qc.push(Operation::new(gate, &qubits)).unwrap();
                }
            }
            if tail {
                qc.barrier().measure_all();
            }
            qc
        })
}

/// Equal width and ops, with angles compared bit for bit.
fn same_circuit(a: &QuantumCircuit, b: &QuantumCircuit) -> bool {
    a.num_qubits() == b.num_qubits()
        && a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.qubits == y.qubits
                && x.gate.name() == y.gate.name()
                && x.gate.params().len() == y.gate.params().len()
                && x.gate
                    .params()
                    .iter()
                    .zip(y.gate.params().iter())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn assert_same_parse(text: &str) -> Result<(), TestCaseError> {
    match (qasm::from_qasm(text), oracle::from_qasm(text)) {
        (Ok(got), Ok(want)) => prop_assert!(same_circuit(&got, &want), "{text:?}"),
        (got, want) => prop_assert_eq!(got.err(), want.err(), "{:?}", text),
    }
    Ok(())
}

/// Bytes a mutation may write: the dialect's punctuation, digits, the
/// letters of its keywords, whitespace and one non-ASCII character.
const MUTATIONS: &[&str] = &[
    " ", "\t", "\n", "\r\n", ";", "(", ")", "[", "]", ",", "/", "//", "*", "-", "+", ".", "e", "0",
    "1", "9", "pi", "q", "c", "x", "h", "u", "rz", "->", "measure", "barrier", "qreg", "é", "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_qasm_matches_oracle(qc in tricky_circuit()) {
        prop_assert_eq!(qasm::to_qasm(&qc), oracle::to_qasm(&qc));
    }

    #[test]
    fn from_qasm_matches_oracle_on_emitted_text(qc in tricky_circuit()) {
        assert_same_parse(&oracle::to_qasm(&qc))?;
    }

    /// Truncations and splices anywhere in emitted text, plus spaces
    /// added around parameter-list punctuation.
    #[test]
    fn from_qasm_matches_oracle_on_mutated_text(
        qc in strategies::circuit(1..=4, 12),
        edits in proptest::collection::vec((any::<usize>(), 0usize..MUTATIONS.len(), 0usize..4), 1..4),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let mut text = oracle::to_qasm(&qc)
            .replace(',', if cut % 3 == 0 { ", " } else { "," })
            .replace('/', if cut % 5 == 0 { " / " } else { "/" });
        for (at, what, removed) in edits {
            let at = at % (text.len() + 1);
            if !text.is_char_boundary(at) {
                continue;
            }
            let end = (at..=(at + removed).min(text.len()))
                .rev()
                .find(|&end| text.is_char_boundary(end))
                .unwrap_or(at);
            text.replace_range(at..end, MUTATIONS[what]);
        }
        if truncate {
            let mut at = cut % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.truncate(at);
        }
        assert_same_parse(&text)?;
    }

    #[test]
    fn canonical_angle_matches_oracle(theta in tricky_angle()) {
        prop_assert_eq!(
            qasm::canonical_angle(theta).to_bits(),
            oracle::canonical_angle(theta).to_bits(),
            "{:e}", theta
        );
    }

    #[test]
    fn structural_hash_matches_oracle(qc in tricky_circuit()) {
        prop_assert_eq!(qc.structural_hash(), oracle::structural_hash(&qc));
    }
}

/// Hand-picked statements: malformed heads, parameter lists with
/// spaces, oversized lists, and registers at the edges of `u32`.
#[test]
fn from_qasm_matches_oracle_on_edge_statements() {
    for body in [
        "u(0, 0, 0) q[0];",
        "u3(0.1, pi/2, pi) q[0];",
        "rz(pi / 2) q[0];",
        "rz(0.5)q[0];",
        "rz(0.5)",
        "rz (0.5) q[0];",
        "rz(0.5 q[0];",
        "rz)0.5( q[0];",
        "rz((0.5) q[0];",
        "rz(0.5)) q[0];",
        "u(1,2,3,4) q[0];",
        "u(1,2,3,x) q[0];",
        "rz(1 2) q[0];",
        "rz( ) q[0];",
        "rz(,) q[0];",
        "rz(3 * pi / 4) q[0];",
        "rz(-pi) q[0];",
        "rz(- pi) q[0];",
        "rz(1e400) q[0];",
        "rz(1e-400) q[0];",
        "rz(4.9e-324) q[0];",
        "rz(0/0) q[0];",
        "rz(pi/0) q[0];",
        "cx q[0], q[1], q[0];",
        "ccx q[0],q[1],q[2],q[3];",
        "cx q[0],q[0];",
        "h q[4294967295];",
        "h q[4294967296];",
        "h q[-1];",
        "h q[+1];",
        "measure q[1]->c[1];",
        "measure q[1] c[1];",
        "barrier q[0], q[1];",
        "barrier;",
        "h\u{a0}q[0];",
        "\u{a0}h q[0];",
        "h q[0]\u{2028}",
        "// only a comment",
        "h q[0]; // x; y",
        "h q[0] /// x",
        "x q[1];;; y q[0]",
        "rz(0.\u{e9}) q[0];",
    ] {
        for width in ["0", "1", "2", "128", "129", "4294967295"] {
            let text =
                format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{width}];\n{body}\n");
            match (qasm::from_qasm(&text), oracle::from_qasm(&text)) {
                (Ok(got), Ok(want)) => assert!(same_circuit(&got, &want), "{text:?}"),
                (got, want) => assert_eq!(got.err(), want.err(), "{text:?}"),
            }
        }
    }
}
