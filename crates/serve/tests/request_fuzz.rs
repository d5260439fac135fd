//! Request-path fuzzing: whatever line arrives, `handle_line` answers
//! with one structured JSON reply and never panics.
//!
//! Inputs: arbitrary bytes read as lossy UTF-8; valid request lines,
//! truncated or with bytes replaced; registers of width 0, 1, 128, 129
//! and `u32::MAX`; and huge, subnormal and non-finite angles. Every
//! reply must be a single line of JSON with a boolean `ok`. When the
//! line is valid JSON with a string `id` and within the size limit, an
//! `ok: false` reply must echo that id.

use std::sync::OnceLock;

use proptest::prelude::*;
use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind};
use qrc_rl::PpoConfig;
use qrc_serve::{CompilationService, ModelRegistry, ServeRequest, ServiceConfig};
use serde_json::Value;

/// Small enough that the byte-level cases reach the size limit.
const MAX_REQUEST_BYTES: usize = 2048;

fn tiny_models() -> Vec<qrc_predictor::TrainedPredictor> {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
    RewardKind::ALL
        .into_iter()
        .map(|reward| {
            let config = PredictorConfig {
                reward,
                total_timesteps: 600,
                ppo: PpoConfig {
                    steps_per_update: 128,
                    minibatch_size: 32,
                    epochs: 2,
                    hidden: vec![16],
                    learning_rate: 1e-3,
                    ..PpoConfig::default()
                },
                seed: 5,
                step_penalty: 0.005,
            };
            train(suite.clone(), &config)
        })
        .collect()
}

/// One service for every case (it is `Sync`; cases share its cache).
fn service() -> &'static CompilationService {
    static SERVICE: OnceLock<CompilationService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        CompilationService::with_registry(
            ModelRegistry::from_models(tiny_models()),
            &ServiceConfig {
                verbose: false,
                max_request_bytes: MAX_REQUEST_BYTES,
                ..ServiceConfig::default()
            },
        )
    })
}

/// Sends `line` and checks the reply's shape and id echo.
fn check(line: &str) -> Result<(), TestCaseError> {
    let reply = service().handle_line(line);
    prop_assert!(
        !reply.contains('\n'),
        "multi-line reply to {line:?}: {reply}"
    );
    let parsed = serde_json::from_str(&reply).map_err(|e| {
        TestCaseError::fail(format!("reply to {line:?} is not JSON ({e}): {reply}"))
    })?;
    let ok = parsed.get("ok").and_then(Value::as_bool);
    prop_assert!(
        ok.is_some(),
        "no boolean `ok` in reply to {line:?}: {reply}"
    );
    if ok == Some(false) && line.len() <= MAX_REQUEST_BYTES {
        let sent = serde_json::from_str(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string));
        if let Some(id) = sent {
            prop_assert_eq!(
                parsed.get("id").and_then(Value::as_str),
                Some(id.as_str()),
                "reply to {:?}: {}",
                line,
                reply
            );
        }
    }
    Ok(())
}

fn request_line(id: &str, qasm: String) -> String {
    ServeRequest {
        id: Some(id.to_string()),
        ..ServeRequest::new(qasm)
    }
    .to_line()
}

/// Valid request lines over small circuits, one of them pinned.
fn valid_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(2),
        BenchmarkFamily::Qft.generate(3),
    ]
    .iter()
    .enumerate()
    .map(|(i, qc)| request_line(&format!("fuzz-{i}"), qrc_circuit::qasm::to_qasm(qc)))
    .collect();
    let mut pinned = ServeRequest::new(qrc_circuit::qasm::to_qasm(
        &BenchmarkFamily::Ghz.generate(2),
    ));
    pinned.id = Some("pinned".into());
    pinned.objective = RewardKind::CriticalDepth;
    pinned.device_pin = qrc_device::DeviceId::from_name("oqc_lucy");
    lines.push(pinned.to_line());
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_bytes_get_structured_replies(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        wrap in any::<bool>(),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        check(&text)?;
        if wrap {
            // The same bytes as a request's `id` and `qasm`.
            let line = format!(
                "{{\"id\":{},\"qasm\":{}}}",
                serde_json::to_string(&Value::from(text.as_str())),
                serde_json::to_string(&Value::from(text.as_str()))
            );
            check(&line)?;
        }
    }

    #[test]
    fn mutated_request_lines_get_structured_replies(
        pick in 0usize..4,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in (any::<bool>(), any::<usize>()),
    ) {
        let mut bytes = valid_lines()[pick].clone().into_bytes();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let (true, at) = cut {
            bytes.truncate(at % (bytes.len() + 1));
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn extreme_angles_get_structured_replies(
        gate in 0usize..3,
        angle in prop_oneof![
            any::<u64>().prop_map(|bits| format!("{:e}", f64::from_bits(bits))),
            any::<u64>().prop_map(|bits| format!("{:.17}", f64::from_bits(bits))),
            (0u64..1 << 52).prop_map(|m| format!("{:e}", f64::from_bits(m))),
            prop_oneof![
                Just("nan".to_string()),
                Just("-inf".to_string()),
                Just("1e400".to_string()),
                Just("-1e-400".to_string()),
                Just("4.9e-324".to_string()),
                Just("1.7976931348623157e308".to_string()),
                Just("pi/0".to_string()),
                Just("1e308*pi".to_string()),
                Just("123456789012345678901234567890*pi/16".to_string()),
            ],
        ],
    ) {
        let op = match gate {
            0 => format!("rz({angle}) q[0];"),
            1 => format!("u({angle}, {angle}, -{angle}) q[1];"),
            _ => format!("rxx({angle}) q[0],q[1];"),
        };
        let qasm = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n{op}\n");
        check(&request_line("angle", qasm))?;
    }
}

/// Registers at the widths where limits and empty circuits live, with
/// no ops, with ops, and with ops past the register.
#[test]
fn extreme_register_widths_get_structured_replies() {
    for width in [0u64, 1, 128, 129, u32::MAX as u64, u32::MAX as u64 + 1] {
        for body in [
            "",
            "h q[0];\n",
            "x q[0];\nmeasure q[0] -> c[0];\n",
            "cx q[0],q[1];\n",
        ] {
            let qasm = format!(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{width}];\ncreg c[{width}];\n{body}"
            );
            for line in [
                request_line(&format!("w{width}"), qasm.clone()),
                format!(
                    r#"{{"id":"w{width}-pin","qasm":{},"device":"ionq_harmony"}}"#,
                    serde_json::to_string(&Value::from(qasm.as_str()))
                ),
            ] {
                check(&line).unwrap_or_else(|e| panic!("{e:?}"));
            }
        }
    }
}
