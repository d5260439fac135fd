//! The output checks every run applies to the service's answers, and
//! the payload digest printed beside the metrics.
//!
//! A response's *payload* is its line without `micros`, `rid` and
//! `cache`; its *body* is the line cut before `micros`, so it keeps
//! `cache`. The first pass is checked field by field. A later answer
//! whose body is byte-identical to the first pass's inherits its
//! verdict; any other answer is checked in full, so a changed byte
//! fails the payload check.

use qrc_circuit::qasm;
use qrc_device::{Device, DeviceId};
use qrc_serve::ServeRequest;
use serde_json::Value;

/// Failure messages kept for the report; later ones are only counted.
const KEPT_FAILURES: usize = 8;

/// What one response contributed to the metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Verdict {
    ok: bool,
    reward: f64,
    executable: bool,
}

/// Totals over every response checked so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Responses checked.
    pub sent: u64,
    /// Responses with `"ok":true`.
    pub ok: u64,
    /// Sum of the rewards of `ok` responses.
    pub reward_sum: f64,
    /// `ok` responses whose QASM is executable on their device.
    pub executable: u64,
}

impl Tally {
    fn add(&mut self, verdict: Verdict) {
        self.sent += 1;
        if verdict.ok {
            self.ok += 1;
            self.reward_sum += verdict.reward;
            self.executable += u64::from(verdict.executable);
        }
    }
}

/// The first pass's answer to one request.
struct Reference {
    /// The raw line up to its volatile fields, for the byte-identity
    /// fast path (`None` if the line did not end in them).
    body: Option<String>,
    payload: String,
    verdict: Verdict,
}

/// Checks every pass of one run against the request list and against
/// the run's first pass.
pub struct Checker {
    ids: Vec<Option<String>>,
    expected_cache: &'static str,
    reference: Vec<Reference>,
    failures: Vec<String>,
    failure_count: u64,
    tally: Tally,
}

impl Checker {
    /// A checker for responses to `requests`, each of which must carry
    /// the cache status `expected_cache`.
    pub fn new(requests: &[ServeRequest], expected_cache: &'static str) -> Checker {
        Checker {
            ids: requests.iter().map(|r| r.id.clone()).collect(),
            expected_cache,
            reference: Vec::new(),
            failures: Vec::new(),
            failure_count: 0,
            tally: Tally::default(),
        }
    }

    /// Checks one full pass of response lines, in request order.
    pub fn check_pass(&mut self, lines: &[String]) {
        if lines.len() != self.ids.len() {
            self.fail(format!(
                "pass answered {} of {} requests",
                lines.len(),
                self.ids.len()
            ));
            return;
        }
        let first = self.reference.is_empty();
        for (index, line) in lines.iter().enumerate() {
            if !first {
                let known = &self.reference[index];
                if known.body.is_some() && body_of(line) == known.body.as_deref() {
                    self.tally.add(known.verdict);
                    continue;
                }
            }
            let (verdict, payload) = self.check_line(index, line);
            if first {
                self.reference.push(Reference {
                    body: body_of(line).map(str::to_string),
                    payload,
                    verdict,
                });
            } else if payload != self.reference[index].payload {
                self.fail(format!(
                    "response {index}: payload differs from the first pass"
                ));
            }
            self.tally.add(verdict);
        }
    }

    /// Checks one response field by field; returns its verdict and its
    /// payload.
    fn check_line(&mut self, index: usize, line: &str) -> (Verdict, String) {
        let mut verdict = Verdict::default();
        let Ok(mut value) = serde_json::from_str(line) else {
            self.fail(format!("response {index} is not JSON"));
            return (verdict, String::new());
        };
        if value.get("id").and_then(Value::as_str) != self.ids[index].as_deref() {
            self.fail(format!("response {index}: id does not match its request"));
        }
        verdict.ok = value.get("ok").and_then(Value::as_bool) == Some(true);
        if !verdict.ok {
            let error = value.get("error").and_then(Value::as_str).unwrap_or("?");
            self.fail(format!("response {index} is not ok: {error}"));
        } else {
            let cache = value.get("cache").and_then(Value::as_str).unwrap_or("");
            if cache != self.expected_cache {
                self.fail(format!(
                    "response {index}: cache `{cache}`, expected `{}`",
                    self.expected_cache
                ));
            }
            verdict.reward = value
                .get("reward")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            verdict.executable = executable(&value);
            if verdict.reward.is_nan() || verdict.reward < 0.0 {
                self.fail(format!("response {index}: reward is not a number >= 0"));
            } else if verdict.reward > 0.0 && !verdict.executable {
                self.fail(format!(
                    "response {index}: reward > 0 but its QASM is not executable on its device"
                ));
            }
        }
        if let Value::Object(pairs) = &mut value {
            pairs.retain(|(key, _)| !matches!(key.as_str(), "micros" | "rid" | "cache"));
        }
        (verdict, serde_json::to_string(&value))
    }

    fn fail(&mut self, message: String) {
        self.failure_count += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// The first few failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Number of failed checks (0 = every check passed).
    pub fn failure_count(&self) -> u64 {
        self.failure_count
    }

    /// Totals over every checked response.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// FNV-1a 64 over the first pass's payloads, sorted so that a
    /// shuffled request order gives the same digest.
    pub fn digest(&self) -> String {
        let mut payloads: Vec<&str> = self.reference.iter().map(|r| r.payload.as_str()).collect();
        payloads.sort_unstable();
        format!("fnv1a64:{:016x}", fnv1a(payloads.join("\n").as_bytes()))
    }
}

/// Whether an `ok` response's QASM passes `Device::check_executable`
/// on the device it names.
fn executable(value: &Value) -> bool {
    let device = value
        .get("device")
        .and_then(Value::as_str)
        .and_then(DeviceId::from_name);
    let circuit = value
        .get("qasm")
        .and_then(Value::as_str)
        .and_then(|text| qasm::from_qasm(text).ok());
    match (device, circuit) {
        (Some(device), Some(circuit)) => Device::get(device).check_executable(&circuit),
        _ => false,
    }
}

/// A response line cut before its trailing `"micros"` and `"rid"`
/// fields, or `None` when the line does not end that way.
fn body_of(line: &str) -> Option<&str> {
    let cut = line.rfind(",\"micros\":")?;
    let tail = &line[cut + ",\"micros\":".len()..];
    let tail = tail.strip_suffix('}')?;
    let (micros, rid) = match tail.split_once(",\"rid\":") {
        Some((micros, rid)) => (micros, rid),
        None => (tail, "0"),
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (digits(micros) && digits(rid)).then(|| &line[..cut])
}

/// Whether a service line and a re-enacted line carry the same bytes
/// apart from `micros` and `rid`.
pub fn same_body(service: &str, reenacted: &str) -> bool {
    match (body_of(service), body_of(reenacted)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
