//! The traced re-enactment of one `CompilationService::handle_lines`
//! call: the same steps, in the same order and with the same batching,
//! made through each layer's public functions with a span around each.
//!
//! Mirrors `handle_queued_inner` → `scheduler::run_batch_reported` →
//! `execute_grouped` → `TrainedPredictor::compile_batch` (f64 batched
//! inference, the default) → `ServeResponse::to_line`. The caller
//! compares every re-enacted line with the service's, so a drift
//! between this file and the service fails the traced run.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use qrc_circuit::{qasm, QuantumCircuit};
use qrc_device::Device;
use qrc_predictor::{
    observation_of, task_seed, Action, CompilationFlow, MaskSignature, RewardKind,
    TrainedPredictor, MAX_EPISODE_STEPS,
};
use qrc_rl::{greedy_from_logits, PpoAgent};
use qrc_serve::{
    CacheKey, CacheStatus, CompilationService, CompiledResult, ModelRegistry, ResultCache,
    ServeRequest, ServeResponse, ServiceConfig, ShardKey, ShardRoute,
};

/// The root span of one re-enacted call; its self time is the
/// re-enactment's own glue, attributed to no layer.
pub const CALL: u16 = 0;
const PROTOCOL_PARSE: u16 = 1;
const PROTOCOL_RENDER: u16 = 2;
const QASM_PARSE: u16 = 3;
const QASM_RENDER: u16 = 4;
const CIRCUIT_HASH: u16 = 5;
const REGISTRY_ROUTE: u16 = 6;
const CACHE_GET: u16 = 7;
const CACHE_INSERT: u16 = 8;
const ENV_OBSERVATION: u16 = 9;
const FLOW_MASK: u16 = 10;
const FLOW_SELECT: u16 = 11;
const POLICY_FORWARD: u16 = 12;
const REWARD_EVALUATE: u16 = 13;
/// Span id of `Action::all()[i]` is `PASS_BASE + i`.
const PASS_BASE: u16 = 14;

/// Names of the fixed layers, indexed by span id (`CALL` excluded).
const FIXED_LAYERS: [&str; 13] = [
    "protocol.parse",
    "protocol.render",
    "qasm.parse",
    "qasm.render",
    "circuit.hash",
    "registry.route",
    "cache.get",
    "cache.insert",
    "env.observation",
    "flow.mask",
    "flow.select",
    "policy.forward",
    "reward.evaluate",
];

/// The metric name of the pass layer for `action`: `pass.` plus
/// `Action::name()` with every character outside `[A-Za-z0-9_.-]`
/// replaced by `_`.
pub fn pass_layer_name(action: Action) -> String {
    let name: String = action
        .name()
        .chars()
        .map(|c| match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '_' | '.' | '-' => c,
            _ => '_',
        })
        .collect();
    format!("pass.{name}")
}

/// Every layer's metric prefix, indexed by span id − 1.
pub fn layer_names() -> Vec<String> {
    FIXED_LAYERS
        .iter()
        .map(|s| s.to_string())
        .chain(Action::all().into_iter().map(pass_layer_name))
        .collect()
}

/// Whether `action` routes (its layer also reports `ops_delta`).
pub fn is_routing(action: Action) -> bool {
    matches!(action, Action::Route(_))
}

/// One recorded span: a layer call on behalf of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id: [`CALL`] or a layer index into [`layer_names`] + 1.
    pub name: u16,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// The request the work was for (a call's first request for
    /// batch-wide work such as the policy forward).
    pub request: u32,
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Per action: (IR ops added, calls) — kept for routing actions.
    ops_delta: Vec<(i64, u64)>,
    cache_gets: u64,
    cache_hits: u64,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops_delta: vec![(0, 0); Action::COUNT],
            cache_gets: 0,
            cache_hits: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: u16, request: u32) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `body` inside a span named `name`.
    fn time<R>(&mut self, name: u16, request: u32, body: impl FnOnce() -> R) -> R {
        self.open(name, request);
        let result = body();
        self.close();
        result
    }

    fn count_lookup(&mut self, hit: bool) {
        self.cache_gets += 1;
        self.cache_hits += u64::from(hit);
    }

    fn count_ops(&mut self, action: usize, added: i64) {
        let entry = &mut self.ops_delta[action];
        entry.0 += added;
        entry.1 += 1;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hits per cache lookup (0 before the first lookup).
    pub fn hit_ratio(&self) -> f64 {
        if self.cache_gets == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_gets as f64
        }
    }

    /// Mean IR ops added per call of each routing action, by layer name.
    pub fn ops_delta(&self) -> Vec<(String, f64)> {
        Action::all()
            .into_iter()
            .zip(&self.ops_delta)
            .filter(|(action, _)| is_routing(*action))
            .map(|(action, &(added, calls))| {
                let mean = if calls == 0 {
                    0.0
                } else {
                    added as f64 / calls as f64
                };
                (pass_layer_name(action), mean)
            })
            .collect()
    }
}

/// Self time (span minus the part its children cover) and call count,
/// per span id.
pub fn self_times(spans: &[Span], ids: usize) -> Vec<(u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != u32::MAX {
            covered[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out = vec![(0u64, 0u64); ids];
    for (span, covered) in spans.iter().zip(covered) {
        let entry = &mut out[span.name as usize];
        entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
        entry.1 += 1;
    }
    out
}

/// One unique compilation job of a call.
struct Job {
    key: CacheKey,
    circuit: QuantumCircuit,
    model: Arc<TrainedPredictor>,
    request: u32,
}

/// A request admitted under a content address: its key, route, parsed
/// circuit and serving model.
type Admitted = (CacheKey, ShardRoute, QuantumCircuit, Arc<TrainedPredictor>);

/// How one request of a call resolved: the response id, and either its
/// key and route or the error to answer with.
type Slot = (Option<String>, Result<(CacheKey, ShardRoute), String>);

/// A unique key's answer within a call.
enum Resolution {
    Hit(Arc<CompiledResult>),
    Computed(Result<Arc<CompiledResult>, String>),
}

/// Re-enacts service calls against a mirror of one service's state:
/// its registry snapshot, a result cache of the same shape fed the same
/// operations, and each policy rebuilt from its checkpoint.
pub struct Reenactor {
    registry: Arc<ModelRegistry>,
    cache: ResultCache,
    seed: u64,
    max_qubits: u32,
    max_request_bytes: usize,
    agents: HashMap<*const TrainedPredictor, PpoAgent>,
}

impl Reenactor {
    /// A mirror of `service` (started from `config`) with an empty cache.
    pub fn new(service: &CompilationService, config: &ServiceConfig) -> Result<Reenactor, String> {
        let registry = service.registry();
        let mut agents = HashMap::new();
        for key in registry.keys() {
            let model = registry
                .route(key)
                .ok_or_else(|| format!("shard {} does not route to itself", key.name()))?
                .model;
            let checkpoint = serde_json::from_str(&model.to_json())
                .map_err(|e| format!("checkpoint of {} is not JSON: {e}", key.name()))?;
            let agent = checkpoint
                .get("agent")
                .ok_or_else(|| format!("checkpoint of {} has no agent", key.name()))
                .and_then(PpoAgent::from_value)?;
            agents.insert(Arc::as_ptr(&model), agent);
        }
        Ok(Reenactor {
            registry,
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
            seed: config.seed,
            max_qubits: config.max_circuit_qubits,
            max_request_bytes: config.max_request_bytes,
            agents,
        })
    }

    /// Re-enacts one `handle_lines(lines)` call; `first_request`
    /// numbers the call's requests for the spans.
    pub fn call(
        &mut self,
        lines: &[String],
        first_request: u32,
        rec: &mut Recorder,
    ) -> Vec<String> {
        rec.open(CALL, first_request);
        let request_of = |i: usize| first_request + i as u32;
        let parsed: Vec<Result<ServeRequest, String>> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                rec.time(PROTOCOL_PARSE, request_of(i), || {
                    if line.len() > self.max_request_bytes {
                        Err(format!(
                            "request line is {} bytes, exceeding the service limit of {}",
                            line.len(),
                            self.max_request_bytes
                        ))
                    } else {
                        ServeRequest::parse(line)
                    }
                })
            })
            .collect();

        // Admission: content address, dedup in request order, one cache
        // lookup per unique key.
        let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
        let mut order: HashMap<CacheKey, usize> = HashMap::new();
        let mut resolutions: Vec<Option<Resolution>> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        let mut job_targets: Vec<usize> = Vec::new();
        for (i, (parsed, line)) in parsed.into_iter().zip(lines).enumerate() {
            let request = match parsed {
                Ok(request) => request,
                Err(message) => {
                    slots.push((ServeRequest::recover_id(line), Err(message)));
                    continue;
                }
            };
            let (key, route, circuit, model) = match self.admit(&request, request_of(i), rec) {
                Ok(admitted) => admitted,
                Err(message) => {
                    slots.push((request.id, Err(message)));
                    continue;
                }
            };
            if let Entry::Vacant(vacant) = order.entry(key) {
                vacant.insert(resolutions.len());
                let found = rec.time(CACHE_GET, request_of(i), || self.cache.get(&key));
                rec.count_lookup(found.is_some());
                match found {
                    Some(found) => resolutions.push(Some(Resolution::Hit(found))),
                    None => {
                        job_targets.push(resolutions.len());
                        resolutions.push(None);
                        jobs.push(Job {
                            key,
                            circuit,
                            model,
                            request: request_of(i),
                        });
                    }
                }
            }
            slots.push((request.id, Ok((key, route))));
        }

        // Execution: jobs grouped by serving model in job order, one
        // lockstep rollout per group.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_model: HashMap<*const TrainedPredictor, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let group = *by_model.entry(Arc::as_ptr(&job.model)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push(i);
        }
        let mut outcomes: Vec<Option<Result<Arc<CompiledResult>, String>>> =
            jobs.iter().map(|_| None).collect();
        for group in &groups {
            let members: Vec<&Job> = group.iter().map(|&i| &jobs[i]).collect();
            let agent = &self.agents[&Arc::as_ptr(&members[0].model)];
            let results = rollout(agent, members[0].model.reward(), self.seed, &members, rec);
            for (&i, result) in group.iter().zip(results) {
                outcomes[i] = Some(result);
            }
        }

        // Publication, then assembly in request order.
        for (i, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
            let outcome = outcome.expect("every job computed");
            if let Ok(result) = &outcome {
                rec.time(CACHE_INSERT, job.request, || {
                    self.cache.insert(job.key, Arc::clone(result))
                });
            }
            resolutions[job_targets[i]] = Some(Resolution::Computed(outcome));
        }
        let mut claimed: HashSet<CacheKey> = HashSet::new();
        let responses: Vec<ServeResponse> = slots
            .into_iter()
            .map(|(id, slot)| {
                let (result, route) = match slot {
                    Err(message) => (Err(message), None),
                    Ok((key, route)) => {
                        let resolution = resolutions[order[&key]]
                            .as_ref()
                            .expect("every admitted key resolves");
                        let result = match resolution {
                            Resolution::Hit(found) => Ok((Arc::clone(found), CacheStatus::Hit)),
                            Resolution::Computed(outcome) => {
                                let status = if claimed.insert(key) {
                                    CacheStatus::Miss
                                } else {
                                    CacheStatus::Coalesced
                                };
                                outcome.clone().map(|found| (found, status))
                            }
                        };
                        (result, Some(route))
                    }
                };
                ServeResponse {
                    id,
                    result,
                    micros: 1,
                    route,
                    rid: Some(1),
                }
            })
            .collect();
        let lines_out = responses
            .iter()
            .enumerate()
            .map(|(i, response)| rec.time(PROTOCOL_RENDER, request_of(i), || response.to_line()))
            .collect();
        rec.close();
        lines_out
    }

    /// The scheduler's admission: parse, width limit, shard route,
    /// content hash.
    fn admit(
        &self,
        request: &ServeRequest,
        id: u32,
        rec: &mut Recorder,
    ) -> Result<Admitted, String> {
        let circuit = rec
            .time(QASM_PARSE, id, || qasm::from_qasm(&request.qasm))
            .map_err(|e| format!("invalid qasm: {e}"))?;
        if circuit.num_qubits() > self.max_qubits {
            return Err(format!(
                "circuit is {} qubits wide, exceeding the service limit of {}",
                circuit.num_qubits(),
                self.max_qubits
            ));
        }
        let requested =
            ShardKey::for_request(request.objective, request.device_pin, circuit.num_qubits());
        let routed = rec
            .time(REGISTRY_ROUTE, id, || self.registry.route(requested))
            .ok_or_else(|| format!("no shard registered for `{}`", requested.name()))?;
        let circuit_hash = rec.time(CIRCUIT_HASH, id, || circuit.structural_hash());
        let key = CacheKey {
            circuit_hash,
            device_pin: request.device_pin,
            shard: routed.key,
            generation: routed.generation,
        };
        let route = ShardRoute {
            shard: routed.key,
            level: routed.level,
        };
        Ok((key, route, circuit, routed.model))
    }
}

/// One in-flight flow of a lockstep rollout.
struct Lane {
    item: usize,
    request: u32,
    flow: CompilationFlow,
}

/// `compile_batch` with f64 batched inference, then the scheduler's
/// rendering, for one model's jobs.
fn rollout(
    agent: &PpoAgent,
    metric: RewardKind,
    master_seed: u64,
    jobs: &[&Job],
    rec: &mut Recorder,
) -> Vec<Result<Arc<CompiledResult>, String>> {
    let mut finished: Vec<Option<Result<CompilationFlow, String>>> =
        jobs.iter().map(|_| None).collect();
    let mut lanes: Vec<Lane> = Vec::with_capacity(jobs.len());
    for (item, job) in jobs.iter().enumerate() {
        let seed = task_seed(master_seed, job.key.mix());
        let flow = rec.time(FLOW_SELECT, job.request, || {
            let mut flow = CompilationFlow::new(job.circuit.clone(), seed);
            match job.key.device_pin {
                Some(pin) => flow.pin_device(Device::get(pin)).map(|()| flow),
                None => Ok(flow),
            }
        });
        match flow {
            Ok(flow) => lanes.push(Lane {
                item,
                request: job.request,
                flow,
            }),
            Err(e) => {
                let pin = job.key.device_pin.map_or("?", |p| p.name());
                finished[item] = Some(Err(format!("pinned device `{pin}` rejected: {e}")));
            }
        }
    }
    let actions = Action::all();
    let mut mask_memo: HashMap<MaskSignature, Vec<bool>> = HashMap::new();
    for _ in 0..MAX_EPISODE_STEPS {
        if lanes.is_empty() {
            break;
        }
        let mut stepping: Vec<Lane> = Vec::with_capacity(lanes.len());
        let mut obs_rows: Vec<Vec<f64>> = Vec::new();
        let mut mask_rows: Vec<Vec<bool>> = Vec::new();
        for lane in lanes.drain(..) {
            if lane.flow.is_done() {
                finished[lane.item] = Some(Ok(lane.flow));
                continue;
            }
            let mask = rec.time(FLOW_MASK, lane.request, || {
                mask_memo
                    .entry(lane.flow.mask_signature())
                    .or_insert_with(|| lane.flow.action_mask())
                    .clone()
            });
            if !mask.iter().any(|&m| m) {
                finished[lane.item] = Some(Ok(lane.flow));
                continue;
            }
            obs_rows.push(rec.time(ENV_OBSERVATION, lane.request, || observation_of(&lane.flow)));
            mask_rows.push(mask);
            stepping.push(lane);
        }
        if stepping.is_empty() {
            break;
        }
        let logits = rec.time(POLICY_FORWARD, stepping[0].request, || {
            agent.policy().forward_batch(&obs_rows)
        });
        for ((mut lane, row), mask) in stepping.into_iter().zip(logits).zip(mask_rows) {
            let choice = rec.time(FLOW_SELECT, lane.request, || {
                greedy_from_logits(&row, &mask)
            });
            let action = actions[choice];
            let before = lane.flow.circuit().len() as i64;
            let applied = rec.time(PASS_BASE + choice as u16, lane.request, || {
                lane.flow.apply(action)
            });
            if applied.is_err() {
                finished[lane.item] = Some(Ok(lane.flow));
                continue;
            }
            if is_routing(action) {
                rec.count_ops(choice, lane.flow.circuit().len() as i64 - before);
            }
            lanes.push(lane);
        }
    }
    for lane in lanes {
        finished[lane.item] = Some(Ok(lane.flow));
    }
    finished
        .into_iter()
        .zip(jobs)
        .map(|(flow, job)| {
            let flow = flow.expect("every lane finished")?;
            Ok(Arc::new(render(flow, metric, job.request, rec)))
        })
        .collect()
}

/// Scores a finished flow and renders it to the wire shape.
fn render(
    flow: CompilationFlow,
    metric: RewardKind,
    request: u32,
    rec: &mut Recorder,
) -> CompiledResult {
    let reward = match (flow.is_done(), flow.device()) {
        (true, Some(device)) => rec.time(REWARD_EVALUATE, request, || {
            metric.evaluate(flow.circuit(), device)
        }),
        _ => 0.0,
    };
    let device = flow.device().map(|d| d.id());
    let actions = flow.history().iter().map(|a| a.name()).collect();
    let qasm = rec.time(QASM_RENDER, request, || qasm::to_qasm(flow.circuit()));
    CompiledResult {
        qasm,
        device,
        actions,
        reward,
    }
}
