//! The newline-delimited JSON wire protocol: request parsing and
//! response rendering.
//!
//! Every request and response is one JSON object on one line. The
//! protocol is deliberately explicit-value based (no serde data model)
//! so it works against the offline vendored `serde_json`. Requests are
//! decoded through a [`Value`] whose strings move into the request;
//! lines are written field by field, measured first so that each line
//! is allocated once at its exact size.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use qrc_device::{DeviceId, DeviceRegistry};
use qrc_predictor::RewardKind;
use serde_json::{Number, Value};

use crate::shard::{ShardKey, ShardRoute};

/// One compilation request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub id: Option<String>,
    /// The circuit, as an OpenQASM 2 program.
    pub qasm: String,
    /// The optimization objective (default: expected fidelity).
    pub objective: RewardKind,
    /// Optional hardware pin: force this target device and let the
    /// policy handle the rest of the flow.
    pub device_pin: Option<DeviceId>,
}

impl ServeRequest {
    /// A request with defaults (fidelity objective, no pin, no id).
    pub fn new(qasm: impl Into<String>) -> Self {
        ServeRequest {
            id: None,
            qasm: qasm.into(),
            objective: RewardKind::ExpectedFidelity,
            device_pin: None,
        }
    }

    /// Parses one NDJSON request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing
    /// `qasm` field, or unknown `objective`/`device` names.
    pub fn parse(line: &str) -> Result<ServeRequest, String> {
        let value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        Self::from_value(value)
    }

    /// Parses an already-decoded JSON value as a request (shared by
    /// [`ServeRequest::parse`] and [`InboundLine::parse`], which must
    /// not decode the line twice). The `qasm` and `id` strings move out
    /// of the value; nothing is copied.
    ///
    /// # Errors
    ///
    /// Same as [`ServeRequest::parse`], minus JSON syntax errors.
    pub fn from_value(value: Value) -> Result<ServeRequest, String> {
        let Value::Object(mut pairs) = value else {
            return Err("request must be a JSON object".into());
        };
        // Like `Value::get`, each field is the first pair with its key.
        fn field<'a>(pairs: &'a mut [(String, Value)], key: &str) -> Option<&'a mut Value> {
            pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        let qasm = match field(&mut pairs, "qasm") {
            Some(Value::String(qasm)) => std::mem::take(qasm),
            _ => return Err("missing required string field `qasm`".into()),
        };
        let id = match field(&mut pairs, "id") {
            None => None,
            Some(Value::String(id)) => Some(std::mem::take(id)),
            Some(_) => return Err("field `id` must be a string".into()),
        };
        let value = Value::Object(pairs);
        let objective = match value.get("objective") {
            None => RewardKind::ExpectedFidelity,
            Some(v) => {
                let name = v.as_str().ok_or("field `objective` must be a string")?;
                RewardKind::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown objective `{name}` (expected one of: {})",
                        RewardKind::ALL.map(|k| k.name()).join(", ")
                    )
                })?
            }
        };
        let device_pin = match value.get("device") {
            None => None,
            Some(v) => {
                let name = v.as_str().ok_or("field `device` must be a string")?;
                Some(DeviceId::from_name(name).ok_or_else(|| {
                    // Lists every *registered* device — built-ins plus
                    // whatever `--device-dir` / runtime registration
                    // added — so the message reflects what this
                    // replica can actually serve.
                    format!(
                        "unknown device `{name}` (expected one of: {})",
                        DeviceRegistry::all()
                            .iter()
                            .map(|d| d.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?)
            }
        };
        Ok(ServeRequest {
            id,
            qasm,
            objective,
            device_pin,
        })
    }

    /// Best-effort `id` recovery from a request line that will not be
    /// (or could not be) scheduled — overload rejections, parse
    /// errors, malformed control commands. Front-end replies can
    /// overtake scheduled responses, so echoing the id whenever the
    /// JSON yields one is what lets clients correlate.
    pub fn recover_id(line: &str) -> Option<String> {
        serde_json::from_str(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
    }

    /// Renders this request as one NDJSON line — the inverse of
    /// [`ServeRequest::parse`], used by clients (and the socket replay
    /// benchmark) to put already-built requests on the wire.
    pub fn to_line(&self) -> String {
        // Names are looked up once, not once per rendering pass.
        let device = self.device_pin.map(DeviceId::name);
        exact_line(|out| {
            out.raw("{");
            if let Some(id) = &self.id {
                out.raw("\"id\":");
                out.string(id);
                out.raw(",");
            }
            out.raw("\"qasm\":");
            out.string(&self.qasm);
            out.raw(",\"objective\":");
            out.string(self.objective.name());
            if let Some(device) = device {
                out.raw(",\"device\":");
                out.string(device);
            }
            out.raw("}");
        })
    }
}

/// Where a line is rendered: [`exact_line`] renders it twice, into a
/// byte count and then into a string of exactly that capacity.
trait Sink {
    /// Appends JSON text as it is.
    fn raw(&mut self, text: &str);
    /// Appends `text` as a quoted, escaped JSON string.
    fn string(&mut self, text: &str);
    /// Appends the JSON text of a number.
    fn number(&mut self, number: Number);
    /// Appends a shard name (`objective/class/band`) as a JSON string;
    /// its parts are fixed identifiers that need no escaping.
    fn shard(&mut self, key: &ShardKey) {
        self.raw("\"");
        self.raw(key.objective.name());
        self.raw("/");
        self.raw(key.device_class.name());
        self.raw("/");
        self.raw(key.width_band.name());
        self.raw("\"");
    }
}

/// A byte count.
struct Measure(usize);

impl fmt::Write for Measure {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0 += text.len();
        Ok(())
    }
}

impl Sink for Measure {
    fn raw(&mut self, text: &str) {
        self.0 += text.len();
    }
    fn string(&mut self, text: &str) {
        self.0 += serde_json::escaped_len(text);
    }
    fn number(&mut self, number: Number) {
        let _ = write!(self, "{number}");
    }
}

impl Sink for String {
    fn raw(&mut self, text: &str) {
        self.push_str(text);
    }
    fn string(&mut self, text: &str) {
        serde_json::write_escaped(self, text);
    }
    fn number(&mut self, number: Number) {
        let _ = write!(self, "{number}");
    }
}

/// Renders a line with `render` into a string of exactly its length.
fn exact_line(render: impl Fn(&mut dyn Sink)) -> String {
    let mut measure = Measure(0);
    render(&mut measure);
    let mut line = String::with_capacity(measure.0);
    render(&mut line);
    debug_assert_eq!(line.len(), measure.0, "both passes render the same bytes");
    line
}

/// An in-band control request: a line carrying `cmd` instead of `qasm`.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlRequest {
    /// `{"cmd":"stats"}` — answer with a live metrics snapshot.
    Stats,
    /// `{"cmd":"reload"}` — rescan the models directory and atomically
    /// swap the shard map (in-flight batches finish on the old one).
    Reload,
    /// `{"cmd":"snapshot"}` — persist the result cache to
    /// `cache_snapshot.ndjson` next to the checkpoints (serving is
    /// unaffected; a restarted server warms from it).
    Snapshot,
    /// `{"cmd":"shutdown"}` — acknowledge, stop admitting requests,
    /// drain in-flight batches, and exit.
    Shutdown,
    /// `{"cmd":"metrics"}` — answer with the Prometheus text-format
    /// rendering of every counter and histogram (as a JSON string
    /// field, since replies are NDJSON).
    Metrics,
    /// `{"cmd":"calibrate","device":...,"calibration":...}` — hot-swap
    /// the named device's calibration data (zero downtime, like
    /// `reload`), bump its calibration generation, and selectively
    /// invalidate the cache entries whose answers read the old
    /// calibration.
    Calibrate {
        /// The registered device name to recalibrate.
        device: String,
        /// The calibration spec (same schema as the `calibration`
        /// field of a device spec file), decoded by the service.
        calibration: Value,
    },
}

/// One decoded inbound NDJSON line: a compilation request or a control
/// command.
#[derive(Debug, Clone, PartialEq)]
pub enum InboundLine {
    /// A compilation request to schedule.
    Request(ServeRequest),
    /// A control command answered by the front end directly.
    Control(ControlRequest),
}

impl InboundLine {
    /// Parses one NDJSON line, routing on the presence of a `cmd`
    /// field.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, an unknown
    /// `cmd`, or an invalid compilation request.
    pub fn parse(line: &str) -> Result<InboundLine, String> {
        let value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        match value.get("cmd") {
            Some(cmd) => {
                let name = cmd.as_str().ok_or("field `cmd` must be a string")?;
                match name {
                    "stats" => Ok(InboundLine::Control(ControlRequest::Stats)),
                    "reload" => Ok(InboundLine::Control(ControlRequest::Reload)),
                    "snapshot" => Ok(InboundLine::Control(ControlRequest::Snapshot)),
                    "shutdown" => Ok(InboundLine::Control(ControlRequest::Shutdown)),
                    "metrics" => Ok(InboundLine::Control(ControlRequest::Metrics)),
                    "calibrate" => {
                        let device = value
                            .get("device")
                            .and_then(Value::as_str)
                            .ok_or("calibrate needs a string `device` field")?
                            .to_string();
                        let calibration = value
                            .get("calibration")
                            .ok_or("calibrate needs a `calibration` field")?
                            .clone();
                        Ok(InboundLine::Control(ControlRequest::Calibrate {
                            device,
                            calibration,
                        }))
                    }
                    other => Err(format!(
                        "unknown cmd `{other}` (expected one of: stats, reload, snapshot, \
                         shutdown, metrics, calibrate)"
                    )),
                }
            }
            None => ServeRequest::from_value(value).map(InboundLine::Request),
        }
    }
}

/// The cacheable payload of one successful compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledResult {
    /// The compiled circuit as OpenQASM 2.
    pub qasm: String,
    /// The target device the flow ended on (None if never selected).
    pub device: Option<DeviceId>,
    /// The action trace the policy took, as stable action names.
    pub actions: Vec<String>,
    /// The achieved reward under the requested objective.
    pub reward: f64,
}

/// How a response was produced relative to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the result cache.
    Hit,
    /// Computed fresh by a policy rollout.
    Miss,
    /// Deduplicated against an identical job in the same batch.
    Coalesced,
}

impl CacheStatus {
    /// Stable wire name.
    pub const fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

/// The error message of a back-pressure rejection (stable: clients and
/// tests match on it).
pub const OVERLOADED_ERROR: &str = "overloaded: request queue is full, retry later";

/// One response, pairing the request id with either a result or an
/// error message, plus cache/latency metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Echo of the request id.
    pub id: Option<String>,
    /// The compilation result, or a request-level error.
    pub result: Result<(Arc<CompiledResult>, CacheStatus), String>,
    /// Wall-clock the service spent on this request, in microseconds.
    /// Excluded from [`ServeResponse::body_value`] so deterministic
    /// comparisons ignore timing.
    pub micros: u64,
    /// The shard the request routed to (absent for requests rejected
    /// before routing: parse errors, oversized lines, overload).
    /// Rendered as the `shard` echo field; routing is deterministic
    /// per registry snapshot, so it is part of the comparable body.
    pub route: Option<ShardRoute>,
    /// Service-assigned request ID, echoed as the `rid` wire field and
    /// stamped on `--log-requests` lines and trace spans so all three
    /// can be joined. Assigned in admission order by the service;
    /// excluded from [`ServeResponse::body_value`] (like `micros`)
    /// because it depends on arrival order, not content.
    pub rid: Option<u64>,
}

impl ServeResponse {
    /// The deterministic part of the response (everything except
    /// latency). Byte-identical between serial and batched execution.
    pub fn body_value(&self) -> Value {
        let mut pairs: Vec<(&str, Value)> = Vec::new();
        match &self.id {
            Some(id) => pairs.push(("id", Value::from(id.clone()))),
            None => pairs.push(("id", Value::Null)),
        }
        if let Some(route) = &self.route {
            pairs.push(("shard", Value::from(route.shard.name())));
        }
        match &self.result {
            Ok((result, status)) => {
                pairs.push(("ok", Value::from(true)));
                pairs.push(("qasm", Value::from(result.qasm.clone())));
                pairs.push((
                    "device",
                    match result.device {
                        Some(d) => Value::from(d.name()),
                        None => Value::Null,
                    },
                ));
                pairs.push((
                    "actions",
                    Value::Array(
                        result
                            .actions
                            .iter()
                            .map(|a| Value::from(a.clone()))
                            .collect(),
                    ),
                ));
                pairs.push(("reward", Value::from(result.reward)));
                pairs.push(("cache", Value::from(status.name())));
            }
            Err(message) => {
                pairs.push(("ok", Value::from(false)));
                pairs.push(("error", Value::from(message.clone())));
            }
        }
        Value::object(pairs)
    }

    /// The batching-independent part of the response: everything
    /// except latency *and* the `cache` status. Cache statuses depend
    /// on how the stream was cut into batches (a duplicate is `miss`,
    /// `coalesced`, or `hit` depending on what shared its batch), so
    /// replays through differently-batched front ends are compared on
    /// this value.
    pub fn payload_value(&self) -> Value {
        let mut value = self.body_value();
        if let Value::Object(pairs) = &mut value {
            pairs.retain(|(key, _)| key != "cache");
        }
        value
    }

    /// The back-pressure rejection response: sent without scheduling
    /// when the request queue is full, so overload degrades into fast
    /// structured errors instead of unbounded memory growth.
    pub fn overloaded(id: Option<String>) -> ServeResponse {
        ServeResponse {
            id,
            result: Err(OVERLOADED_ERROR.into()),
            // The same ≥1µs clock-resolution floor every other path
            // reports: a rejection is fast, not free.
            micros: 1,
            route: None,
            rid: None,
        }
    }

    /// Renders the full NDJSON response line (no trailing newline):
    /// [`ServeResponse::body_value`] plus `micros` and `rid`, written
    /// directly into a string of exactly its length.
    pub fn to_line(&self) -> String {
        // Names are looked up once, not once per rendering pass.
        let device = match &self.result {
            Ok((result, _)) => result.device.map(DeviceId::name),
            Err(_) => None,
        };
        exact_line(|out| {
            out.raw("{\"id\":");
            match &self.id {
                Some(id) => out.string(id),
                None => out.raw("null"),
            }
            if let Some(route) = &self.route {
                out.raw(",\"shard\":");
                out.shard(&route.shard);
            }
            match &self.result {
                Ok((result, status)) => {
                    out.raw(",\"ok\":true,\"qasm\":");
                    out.string(&result.qasm);
                    out.raw(",\"device\":");
                    match device {
                        Some(device) => out.string(device),
                        None => out.raw("null"),
                    }
                    out.raw(",\"actions\":[");
                    for (i, action) in result.actions.iter().enumerate() {
                        if i > 0 {
                            out.raw(",");
                        }
                        out.string(action);
                    }
                    out.raw("],\"reward\":");
                    out.number(Number::F(result.reward));
                    out.raw(",\"cache\":");
                    out.string(status.name());
                }
                Err(message) => {
                    out.raw(",\"ok\":false,\"error\":");
                    out.string(message);
                }
            }
            out.raw(",\"micros\":");
            out.number(Number::U(self.micros));
            if let Some(rid) = self.rid {
                out.raw(",\"rid\":");
                out.number(Number::U(rid));
            }
            out.raw("}");
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{DeviceClass, RouteLevel, WidthBand};
    use proptest::prelude::*;
    use qrc_device::Platform;

    /// The renderings and the request decoding that the direct writers
    /// and the moving parser replaced.
    mod oracle {
        use super::*;

        pub fn response_line(response: &ServeResponse) -> String {
            let mut value = response.body_value();
            if let Value::Object(pairs) = &mut value {
                pairs.push(("micros".into(), Value::from(response.micros)));
                if let Some(rid) = response.rid {
                    pairs.push(("rid".into(), Value::from(rid)));
                }
            }
            serde_json::to_string(&value)
        }

        pub fn request_line(request: &ServeRequest) -> String {
            let mut pairs: Vec<(&str, Value)> = Vec::new();
            if let Some(id) = &request.id {
                pairs.push(("id", Value::from(id.clone())));
            }
            pairs.push(("qasm", Value::from(request.qasm.clone())));
            pairs.push(("objective", Value::from(request.objective.name())));
            if let Some(pin) = request.device_pin {
                pairs.push(("device", Value::from(pin.name())));
            }
            serde_json::to_string(&Value::object(pairs))
        }

        pub fn parse(line: &str) -> Result<ServeRequest, String> {
            let value = serde_json::from_str(line).map_err(|e| e.to_string())?;
            if value.as_object().is_none() {
                return Err("request must be a JSON object".into());
            }
            let qasm = value
                .get("qasm")
                .and_then(|v| v.as_str())
                .ok_or("missing required string field `qasm`")?
                .to_string();
            let id = match value.get("id") {
                None => None,
                Some(v) => Some(v.as_str().ok_or("field `id` must be a string")?.to_string()),
            };
            // The rest of the decoding did not change.
            let mut rest = ServeRequest::from_value(value)?;
            rest.id = id;
            rest.qasm = qasm;
            Ok(rest)
        }
    }

    /// Text with everything JSON escapes: quotes, backslashes, control
    /// characters, plus non-ASCII characters.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                1 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
                1 => prop_oneof![Just('"'), Just('\\'), Just('é'), Just('😀'), Just('\u{2028}')],
            ],
            0..32,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    fn maybe<T: std::fmt::Debug>(
        strategy: impl Strategy<Value = T> + 'static,
    ) -> impl Strategy<Value = Option<T>> {
        (any::<bool>(), strategy).prop_map(|(some, value)| some.then_some(value))
    }

    fn shard_route() -> impl Strategy<Value = ShardRoute> {
        (
            0usize..3,
            0usize..=Platform::ALL.len(),
            0usize..4,
            0usize..4,
        )
            .prop_map(|(objective, class, band, level)| ShardRoute {
                shard: ShardKey {
                    objective: RewardKind::ALL[objective],
                    device_class: Platform::ALL
                        .get(class)
                        .map_or(DeviceClass::Any, |&p| DeviceClass::Class(p)),
                    width_band: [
                        WidthBand::Any,
                        WidthBand::Narrow,
                        WidthBand::Medium,
                        WidthBand::Wide,
                    ][band],
                },
                level: [
                    RouteLevel::Exact,
                    RouteLevel::BandWildcard,
                    RouteLevel::DeviceWildcard,
                    RouteLevel::ObjectiveOnly,
                ][level],
            })
    }

    /// Rewards of every kind, non-finite ones included.
    fn reward() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0..1.0f64,
            any::<u64>().prop_map(f64::from_bits),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(1.0),
                Just(f64::NAN),
                Just(f64::INFINITY)
            ],
        ]
    }

    fn response() -> impl Strategy<Value = ServeResponse> {
        let compiled = (
            text(),
            maybe(0usize..DeviceId::ALL.len()),
            proptest::collection::vec(text(), 0..4),
            reward(),
            0usize..3,
        )
            .prop_map(|(qasm, device, actions, reward, status)| {
                let status = [CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Coalesced][status];
                let result = CompiledResult {
                    qasm,
                    device: device.map(|i| DeviceId::ALL[i]),
                    actions,
                    reward,
                };
                (Arc::new(result), status)
            });
        (
            (maybe(text()), any::<bool>(), compiled, text()),
            (any::<u64>(), maybe(shard_route()), maybe(any::<u64>())),
        )
            .prop_map(
                |((id, ok, compiled, error), (micros, route, rid))| ServeResponse {
                    id,
                    result: if ok { Ok(compiled) } else { Err(error) },
                    micros,
                    route,
                    rid,
                },
            )
    }

    fn request() -> impl Strategy<Value = ServeRequest> {
        (
            maybe(text()),
            text(),
            0usize..3,
            maybe(0usize..DeviceId::ALL.len()),
        )
            .prop_map(|(id, qasm, objective, pin)| ServeRequest {
                id,
                qasm,
                objective: RewardKind::ALL[objective],
                device_pin: pin.map(|i| DeviceId::ALL[i]),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn response_lines_match_oracle(response in response()) {
            let line = response.to_line();
            prop_assert_eq!(&line, &oracle::response_line(&response));
            prop_assert_eq!(line.capacity(), line.len());
        }

        #[test]
        fn request_lines_match_oracle(request in request()) {
            let line = request.to_line();
            prop_assert_eq!(&line, &oracle::request_line(&request));
            prop_assert_eq!(line.capacity(), line.len());
            prop_assert_eq!(ServeRequest::parse(&line), Ok(request));
        }

        /// Requests with missing, mistyped, duplicated and extra
        /// fields decode as they did.
        #[test]
        fn parse_matches_oracle(
            fields in proptest::collection::vec((0usize..6, 0usize..4, text()), 0..6),
            truncate in maybe(any::<usize>()),
        ) {
            let keys = ["id", "qasm", "objective", "device", "cmd", "x"];
            let pairs = fields
                .into_iter()
                .map(|(key, kind, text)| {
                    let value = match kind {
                        0 => Value::from(text),
                        1 => Value::from(keys[key]),
                        2 => Value::from(7u64),
                        _ => ["fidelity", "critical_depth", "oqc_lucy", "ionq_harmony"]
                            .get(key % 4)
                            .map_or(Value::Null, |&name| Value::from(name)),
                    };
                    (keys[key], value)
                })
                .collect();
            let mut line = serde_json::to_string(&Value::object(pairs));
            if let Some(at) = truncate {
                let mut at = at % (line.len() + 1);
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                line.truncate(at);
            }
            prop_assert_eq!(ServeRequest::parse(&line), oracle::parse(&line));
        }
    }

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = ServeRequest::parse(r#"{"qasm":"OPENQASM 2.0;"}"#).unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.objective, RewardKind::ExpectedFidelity);
        assert_eq!(r.device_pin, None);

        let r = ServeRequest::parse(
            r#"{"id":"a1","qasm":"qreg q[1];","objective":"critical_depth","device":"oqc_lucy"}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("a1"));
        assert_eq!(r.objective, RewardKind::CriticalDepth);
        assert_eq!(r.device_pin, Some(DeviceId::OqcLucy));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "parse error"),
            ("[1,2]", "JSON object"),
            ("{}", "qasm"),
            (r#"{"qasm": 7}"#, "qasm"),
            (r#"{"qasm":"x","objective":"speed"}"#, "unknown objective"),
            (r#"{"qasm":"x","device":"ibm_q_unknown"}"#, "unknown device"),
            (r#"{"qasm":"x","id":5}"#, "`id`"),
        ] {
            let err = ServeRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → {err}");
        }
    }

    #[test]
    fn response_lines_round_trip_as_json() {
        let ok = ServeResponse {
            id: Some("r9".into()),
            result: Ok((
                Arc::new(CompiledResult {
                    qasm: "OPENQASM 2.0;\n".into(),
                    device: Some(DeviceId::IonqHarmony),
                    actions: vec!["platform:ionq".into(), "synthesize".into()],
                    reward: 0.875,
                }),
                CacheStatus::Miss,
            )),
            micros: 1500,
            route: None,
            rid: Some(42),
        };
        let parsed = serde_json::from_str(&ok.to_line()).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(parsed.get("micros").unwrap().as_u64(), Some(1500));
        assert_eq!(parsed.get("rid").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("reward").unwrap().as_f64(), Some(0.875));

        let err = ServeResponse {
            id: None,
            result: Err("missing required string field `qasm`".into()),
            micros: 3,
            route: None,
            rid: None,
        };
        let parsed = serde_json::from_str(&err.to_line()).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert!(parsed
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("qasm"));
    }

    #[test]
    fn request_lines_round_trip() {
        for line in [
            r#"{"qasm":"OPENQASM 2.0;"}"#,
            r#"{"id":"a1","qasm":"qreg q[1];","objective":"critical_depth","device":"oqc_lucy"}"#,
        ] {
            let request = ServeRequest::parse(line).unwrap();
            let rendered = request.to_line();
            assert_eq!(ServeRequest::parse(&rendered).unwrap(), request);
        }
    }

    #[test]
    fn inbound_lines_route_on_cmd() {
        assert_eq!(
            InboundLine::parse(r#"{"cmd":"stats"}"#).unwrap(),
            InboundLine::Control(ControlRequest::Stats)
        );
        assert_eq!(
            InboundLine::parse(r#"{"cmd":"snapshot"}"#).unwrap(),
            InboundLine::Control(ControlRequest::Snapshot)
        );
        assert_eq!(
            InboundLine::parse(r#"{"cmd":"shutdown"}"#).unwrap(),
            InboundLine::Control(ControlRequest::Shutdown)
        );
        let err = InboundLine::parse(r#"{"cmd":"reboot"}"#).unwrap_err();
        assert!(err.contains("unknown cmd"), "{err}");
        match InboundLine::parse(
            r#"{"cmd":"calibrate","device":"oqc_lucy",
                "calibration":{"synthetic":{"profile":"superconducting_oqc","seed":"v2"}}}"#,
        )
        .unwrap()
        {
            InboundLine::Control(ControlRequest::Calibrate {
                device,
                calibration,
            }) => {
                assert_eq!(device, "oqc_lucy");
                assert!(calibration.get("synthetic").is_some());
            }
            other => panic!("{other:?}"),
        }
        let err = InboundLine::parse(r#"{"cmd":"calibrate"}"#).unwrap_err();
        assert!(err.contains("device"), "{err}");
        let err = InboundLine::parse(r#"{"cmd":"calibrate","device":"oqc_lucy"}"#).unwrap_err();
        assert!(err.contains("calibration"), "{err}");
        assert!(matches!(
            InboundLine::parse(r#"{"qasm":"OPENQASM 2.0;"}"#).unwrap(),
            InboundLine::Request(_)
        ));
    }

    #[test]
    fn payload_value_excludes_cache_status() {
        let resp = ServeResponse {
            id: Some("p".into()),
            result: Ok((
                Arc::new(CompiledResult {
                    qasm: "OPENQASM 2.0;\n".into(),
                    device: None,
                    actions: vec![],
                    reward: 0.5,
                }),
                CacheStatus::Coalesced,
            )),
            micros: 10,
            route: None,
            rid: None,
        };
        let payload = resp.payload_value();
        assert!(payload.get("cache").is_none());
        assert!(payload.get("qasm").is_some());
        assert!(resp.body_value().get("cache").is_some());
    }

    #[test]
    fn overloaded_response_is_a_structured_error() {
        let resp = ServeResponse::overloaded(Some("r1".into()));
        let parsed = serde_json::from_str(&resp.to_line()).unwrap();
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some(OVERLOADED_ERROR)
        );
    }

    #[test]
    fn body_value_excludes_latency() {
        let resp = ServeResponse {
            id: None,
            result: Err("x".into()),
            micros: 999,
            route: None,
            rid: Some(7),
        };
        // `micros` and `rid` are per-run artifacts (timing, arrival
        // order): present on the wire, absent from the comparable body.
        assert!(resp.body_value().get("micros").is_none());
        assert!(resp.body_value().get("rid").is_none());
        let parsed = serde_json::from_str(&resp.to_line()).unwrap();
        assert_eq!(parsed.get("rid").unwrap().as_u64(), Some(7));
    }
}
