//! `--self-test`: a minimal-size run of every workload, timed and
//! traced, that must print every metric with its unit and pass its
//! checks (the traced runs re-enact a few requests each); corrupted
//! answers that must trip each output check; and, when run from the
//! repository root, agreement of `BENCHMARK.json` with the metric
//! tables.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use qrc_circuit::{qasm, QuantumCircuit};
use qrc_device::DeviceId;
use qrc_predictor::RewardKind;
use qrc_serve::{
    CacheStatus, CompiledResult, RouteLevel, ServeRequest, ServeResponse, ShardKey, ShardRoute,
};
use serde_json::Value;

use crate::check::{same_body, Checker};
use crate::workload::Workload;
use crate::{per_layer_table, Scale, END_TO_END};

/// `--self-test`: exits nonzero if any self-test fails.
pub fn run(work: &Path) -> ExitCode {
    let scale = Scale {
        timesteps: 256,
        limit: Some(6),
        seconds: 0.0,
        min_tail: 0,
    };
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let label = format!("{} --trace {}", workload.name(), u8::from(trace));
            match crate::run(workload, 7, trace, &scale, work) {
                Ok(result) => {
                    if !result.correct {
                        failures.push(format!("{label}: checks failed: {:?}", result.failures));
                    }
                    let printed: Vec<(String, String)> = result
                        .metrics
                        .iter()
                        .map(|(name, _, unit)| (name.clone(), unit.clone()))
                        .collect();
                    if printed != expected_metrics(trace) {
                        failures.push(format!("{label}: metric names or units differ"));
                    }
                    if result
                        .metrics
                        .iter()
                        .any(|(_, value, _)| !value.is_finite())
                    {
                        failures.push(format!("{label}: a metric is not a finite number"));
                    }
                    if serde_json::from_str(&result.json()).is_err() {
                        failures.push(format!("{label}: the result line is not JSON"));
                    }
                }
                Err(e) => failures.push(format!("{label}: {e}")),
            }
        }
    }
    failures.extend(corruption_failures());
    failures.extend(manifest_failures(Path::new("BENCHMARK.json")));
    for failure in &failures {
        eprintln!("self-test failed: {failure}");
    }
    if failures.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn expected_metrics(trace: bool) -> Vec<(String, String)> {
    if trace {
        per_layer_table()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }
}

/// A well-formed answer on `device` whose QASM is `circuit`.
fn answer(id: &str, circuit: &QuantumCircuit, device: DeviceId, reward: f64) -> String {
    ServeResponse {
        id: Some(id.to_string()),
        result: Ok((
            Arc::new(CompiledResult {
                qasm: qasm::to_qasm(circuit),
                device: Some(device),
                actions: vec!["synthesize".to_string()],
                reward,
            }),
            CacheStatus::Miss,
        )),
        micros: 17,
        route: Some(ShardRoute {
            shard: ShardKey::wildcard(RewardKind::ExpectedFidelity),
            level: RouteLevel::ObjectiveOnly,
        }),
        rid: Some(3),
    }
    .to_line()
}

/// The failure messages of a fresh checker over two passes.
fn failures_over(requests: &[ServeRequest], first: &[String], second: &[String]) -> Vec<String> {
    let mut checker = Checker::new(requests, "miss");
    checker.check_pass(first);
    checker.check_pass(second);
    checker.failures().to_vec()
}

/// Each corruption must trip the check it targets; clean passes and
/// changed timing fields must not.
fn corruption_failures() -> Vec<String> {
    let requests: Vec<ServeRequest> = ["a", "b"]
        .iter()
        .map(|id| ServeRequest {
            id: Some(id.to_string()),
            ..ServeRequest::new("")
        })
        .collect();
    // An empty circuit is trivially executable; a lone `h` is native
    // on no device.
    let empty = QuantumCircuit::new(2);
    let mut foreign = QuantumCircuit::new(2);
    foreign.h(0);
    let device = DeviceId::IbmqWashington;
    let clean = vec![
        answer("a", &empty, device, 0.5),
        answer("b", &empty, device, 0.25),
    ];
    let retimed: Vec<String> = clean
        .iter()
        .map(|line| {
            line.replace("\"micros\":17", "\"micros\":99")
                .replace("\"rid\":3", "\"rid\":8")
        })
        .collect();

    let mut failures = Vec::new();
    if !failures_over(&requests, &clean, &retimed).is_empty() {
        failures.push("clean passes with new micros/rid fail the checks".to_string());
    }
    let error_line = ServeResponse {
        id: Some("a".into()),
        result: Err("boom".into()),
        micros: 1,
        route: None,
        rid: Some(1),
    }
    .to_line();
    // (corruption, message of the check it must trip, passes)
    let cases: [(&str, &str, Vec<String>, Vec<String>); 5] = [
        (
            "an answer that is not ok",
            "is not ok",
            vec![error_line, clean[1].clone()],
            clean.clone(),
        ),
        (
            "a wrong cache status",
            "expected `miss`",
            vec![
                clean[0].replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
                clean[1].clone(),
            ],
            clean.clone(),
        ),
        (
            "a payload that changed between passes",
            "differs from the first pass",
            clean.clone(),
            vec![
                clean[0].clone(),
                clean[1].replace("\"reward\":0.25", "\"reward\":0.26"),
            ],
        ),
        (
            "a rewarded answer that is not executable",
            "not executable",
            vec![answer("a", &foreign, device, 0.5), clean[1].clone()],
            vec![answer("a", &foreign, device, 0.5), clean[1].clone()],
        ),
        (
            "answers out of request order",
            "id does not match",
            vec![clean[1].clone(), clean[0].clone()],
            vec![clean[1].clone(), clean[0].clone()],
        ),
    ];
    for (what, message, first, second) in cases {
        if !failures_over(&requests, &first, &second)
            .iter()
            .any(|failure| failure.contains(message))
        {
            failures.push(format!("{what} did not trip its check"));
        }
    }
    if !same_body(&clean[0], &retimed[0]) {
        failures.push("the re-enactment guard rejects a line differing only in micros/rid".into());
    }
    if same_body(
        &clean[1],
        &clean[1].replace("\"reward\":0.25", "\"reward\":0.26"),
    ) {
        failures.push("the re-enactment guard accepts a changed payload".into());
    }
    failures
}

/// `BENCHMARK.json`, when present, must list exactly the metrics the
/// benchmark prints, with the same units.
fn manifest_failures(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(manifest) = serde_json::from_str(&text) else {
        return vec![format!("{} is not JSON", path.display())];
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let mut failures = Vec::new();
    if listed("end_to_end") != expected_metrics(false) {
        failures.push(format!(
            "{}: end_to_end differs from the metrics printed",
            path.display()
        ));
    }
    if listed("per_layer") != expected_metrics(true) {
        failures.push(format!(
            "{}: per_layer differs from the metrics printed",
            path.display()
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    #[test]
    fn corrupted_answers_trip_every_check() {
        assert_eq!(super::corruption_failures(), Vec::<String>::new());
    }
}
