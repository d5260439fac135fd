//! The batch scheduler: request stream → deduplicated jobs → rayon
//! worker pool → responses, with results byte-identical to serial
//! execution.
//!
//! Determinism comes from two choices:
//!
//! 1. every job's seed derives from its *content address*
//!    (`task_seed(master, key.mix())`), never from arrival order or a
//!    shared RNG, and
//! 2. deduplication and response assembly follow request order, so the
//!    first occurrence of a key is the "miss" and later duplicates are
//!    "coalesced" regardless of which worker finished first.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use qrc_circuit::qasm;
use qrc_predictor::{task_seed, BatchCompileRequest, CompilationOutcome, TrainedPredictor};
use rayon::prelude::*;

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{CacheStatus, CompiledResult, ServeRequest, ServeResponse};
use crate::registry::ModelRegistry;
use crate::shard::{ShardKey, ShardRoute};

/// How one request slot resolved during admission.
enum Slot {
    /// Rejected before reaching the scheduler (parse error, no shard
    /// for the objective, …).
    Failed(String),
    /// Admitted under a content address, routed to a shard.
    Keyed(CacheKey, ShardRoute),
}

/// One unique compilation job within a batch.
struct Job {
    key: CacheKey,
    circuit: qrc_circuit::QuantumCircuit,
    model: Arc<TrainedPredictor>,
}

/// One computed job's outcome: the rendered result (or pin-rejection
/// error) plus the latency attributed to it in microseconds.
type JobOutcome = (Result<Arc<CompiledResult>, String>, u64);

/// The resolution of one unique key within a batch.
enum Resolution {
    /// Found in the result cache before computing.
    CachedHit(Arc<CompiledResult>),
    /// Computed by this batch (latency in microseconds).
    Computed(JobOutcome),
}

/// Per-response stage durations, aligned with
/// [`BatchReport::responses`]: the slices of one request's `micros`
/// that the observability layer attributes to pipeline stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseStages {
    /// Admission work this request paid itself: QASM parse, content
    /// hash, cache lookup.
    pub admission_us: u64,
    /// Rollout compute, attributed to the one `miss` response that
    /// owns it (0 for hits, coalesced duplicates, and rejections).
    pub compute_us: u64,
}

/// One batch's responses plus its execution accounting.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request responses, in request order.
    pub responses: Vec<ServeResponse>,
    /// Per-response stage durations, in request order.
    pub stages: Vec<ResponseStages>,
}

/// Admission-time limits and pool fan-out of one scheduled batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Fan model groups of cache misses across the rayon pool.
    pub parallel: bool,
    /// Reject circuits wider than this many qubits at admission
    /// (`u32::MAX` disables the limit).
    pub max_qubits: u32,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            parallel: true,
            max_qubits: u32::MAX,
        }
    }
}

/// Runs one batch of requests to completion.
///
/// Identical jobs (same circuit content, objective, and device pin)
/// are computed once. The unique misses of each model advance in one
/// lockstep rollout ([`TrainedPredictor::compile_batch`]), and model
/// groups fan out across the rayon pool when `options.parallel` is
/// set. The returned responses are byte-identical (save the latency
/// field) between `parallel = true` and `false`, and to a
/// [`TrainedPredictor::compile_request`] per unique job.
///
/// `queue_waits_us`, when present, carries each request's time spent in
/// the front-end queue before this batch was scheduled; it is folded
/// into the reported latency.
///
/// # Latency accounting
///
/// Each response's `micros` is that request's *own* cost: queue wait +
/// its admission work (QASM parse, content hashing, cache lookup) +,
/// only for the one request that owns the compute (the `miss`), the
/// policy rollout. Coalesced duplicates and cache hits do **not**
/// re-report the miss's compute time — a batch of N duplicates adds the
/// rollout to the latency ledger once, not N times.
pub fn run_batch(
    registry: &ModelRegistry,
    cache: &ResultCache,
    master_seed: u64,
    options: &BatchOptions,
    requests: &[ServeRequest],
    queue_waits_us: Option<&[u64]>,
) -> BatchReport {
    if let Some(waits) = queue_waits_us {
        assert_eq!(waits.len(), requests.len(), "one queue wait per request");
    }
    // Admission: resolve content addresses, deduplicate in request
    // order, and consult the cache once per unique key. Each request's
    // admission work is timed individually — it is real per-request
    // cost (parse + hash + lookup) and the only cost a duplicate pays.
    let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
    let mut admission_us: Vec<u64> = Vec::with_capacity(requests.len());
    let mut order: HashMap<CacheKey, usize> = HashMap::new();
    let mut resolutions: Vec<Option<Resolution>> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut job_targets: Vec<usize> = Vec::new();

    for request in requests {
        let admission_start = Instant::now();
        let admitted = admit(registry, request, options.max_qubits);
        match admitted {
            Err(message) => slots.push(Slot::Failed(message)),
            Ok((key, route, circuit, model)) => {
                if let std::collections::hash_map::Entry::Vacant(slot) = order.entry(key) {
                    let index = resolutions.len();
                    slot.insert(index);
                    match cache.get(&key) {
                        Some(found) => resolutions.push(Some(Resolution::CachedHit(found))),
                        None => {
                            resolutions.push(None);
                            job_targets.push(index);
                            jobs.push(Job {
                                key,
                                circuit,
                                model,
                            });
                        }
                    }
                }
                slots.push(Slot::Keyed(key, route));
            }
        }
        admission_us.push(admission_start.elapsed().as_micros() as u64);
    }

    // Execution: each model's jobs advance in one lockstep rollout (one
    // matrix-matrix policy forward per tick); model groups fan across
    // the pool.
    let outcomes = execute_grouped(&jobs, master_seed, options.parallel);

    // Publication: successful results enter the cache for future
    // batches.
    for (i, (job, (outcome, micros))) in jobs.iter().zip(outcomes).enumerate() {
        if let Ok(result) = &outcome {
            cache.insert(job.key, Arc::clone(result));
        }
        resolutions[job_targets[i]] = Some(Resolution::Computed((outcome, micros)));
    }

    // Assembly, in request order: the first slot carrying a computed
    // key is the miss; later duplicates coalesce.
    let mut miss_claimed: std::collections::HashSet<CacheKey> = std::collections::HashSet::new();
    let mut responses: Vec<ServeResponse> = Vec::with_capacity(requests.len());
    let mut stages: Vec<ResponseStages> = Vec::with_capacity(requests.len());
    for (i, (request, slot)) in requests.iter().zip(slots).enumerate() {
        // Clock-resolution floor: even a sub-microsecond admission
        // (tiny cached hit, instant rejection) reports 1µs — never
        // the `micros: 0` that dragged p50 toward zero.
        let own_us = (queue_waits_us.map_or(0, |w| w[i]) + admission_us[i]).max(1);
        let mut parts = ResponseStages {
            admission_us: admission_us[i],
            compute_us: 0,
        };
        let response = match slot {
            Slot::Failed(message) => ServeResponse {
                id: request.id.clone(),
                result: Err(message),
                micros: own_us,
                route: None,
                rid: None,
            },
            Slot::Keyed(key, route) => {
                let resolution = resolutions[order[&key]]
                    .as_ref()
                    .expect("every admitted key resolves");
                let (result, status, micros) = match resolution {
                    Resolution::CachedHit(found) => {
                        (Ok(Arc::clone(found)), CacheStatus::Hit, own_us)
                    }
                    Resolution::Computed((outcome, compute_us)) => {
                        let first = miss_claimed.insert(key);
                        // Only the miss carries the rollout's cost;
                        // duplicates coalescing onto it report just
                        // their own admission + queue time.
                        let (status, micros) = if first {
                            parts.compute_us = *compute_us;
                            (CacheStatus::Miss, own_us + *compute_us)
                        } else {
                            (CacheStatus::Coalesced, own_us)
                        };
                        match outcome {
                            Ok(found) => (Ok(Arc::clone(found)), status, micros),
                            Err(e) => (Err(e.clone()), status, micros),
                        }
                    }
                };
                ServeResponse {
                    id: request.id.clone(),
                    result: result.map(|r| (r, status)),
                    micros,
                    route: Some(route),
                    rid: None,
                }
            }
        };
        responses.push(response);
        stages.push(parts);
    }
    BatchReport { responses, stages }
}

/// Runs the execution stage: jobs are grouped by the model that serves
/// them (in job order, so grouping is deterministic), each group runs
/// one lockstep batched rollout, and groups fan across the rayon pool
/// when `parallel` is set.
///
/// Latency attribution: a lockstep group's wall-clock is shared work —
/// each of its jobs reports the group's elapsed time divided by the
/// group size (floored at 1µs), so a batch's summed miss cost is
/// counted once instead of once per job.
fn execute_grouped(jobs: &[Job], master_seed: u64, parallel: bool) -> Vec<JobOutcome> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_model: HashMap<*const TrainedPredictor, usize> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let group = *by_model.entry(Arc::as_ptr(&job.model)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(i);
    }
    let run_group = |indices: &Vec<usize>| -> Vec<JobOutcome> {
        let model = &jobs[indices[0]].model;
        let items: Vec<BatchCompileRequest<'_>> = indices
            .iter()
            .map(|&i| {
                let job = &jobs[i];
                BatchCompileRequest {
                    circuit: &job.circuit,
                    pin: job.key.device_pin,
                    seed: task_seed(master_seed, job.key.mix()),
                }
            })
            .collect();
        let start = Instant::now();
        let results = model.compile_batch(&items);
        let per_job_us = (start.elapsed().as_micros() as u64 / indices.len() as u64).max(1);
        indices
            .iter()
            .zip(results)
            .map(|(&i, result)| {
                let rendered = result
                    .map(|outcome| Arc::new(render(&outcome)))
                    .map_err(|e| {
                        let pin = jobs[i].key.device_pin.map_or("?", |p| p.name());
                        format!("pinned device `{pin}` rejected: {e}")
                    });
                (rendered, per_job_us)
            })
            .collect()
    };
    let finished: Vec<Vec<JobOutcome>> = if parallel {
        groups.par_iter().map(run_group).collect()
    } else {
        groups.iter().map(run_group).collect()
    };
    let mut out: Vec<Option<JobOutcome>> = jobs.iter().map(|_| None).collect();
    for (indices, outcomes) in groups.iter().zip(finished) {
        for (&i, outcome) in indices.iter().zip(outcomes) {
            out[i] = Some(outcome);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every job computed"))
        .collect()
}

/// Renders a rollout outcome to the wire shape.
fn render(outcome: &CompilationOutcome) -> CompiledResult {
    CompiledResult {
        qasm: qasm::to_qasm(&outcome.circuit),
        device: outcome.device,
        actions: outcome.actions.iter().map(|a| a.name()).collect(),
        reward: outcome.reward,
    }
}

/// Validates one request far enough to give it a content address and a
/// route: the requested `(objective, device class, width band)` slice
/// resolves to the most specific registered shard via the fallback
/// chain. Routing is deterministic — a given request against a given
/// registry snapshot always lands on the same shard.
fn admit(
    registry: &ModelRegistry,
    request: &ServeRequest,
    max_qubits: u32,
) -> Result<
    (
        CacheKey,
        ShardRoute,
        qrc_circuit::QuantumCircuit,
        Arc<TrainedPredictor>,
    ),
    String,
> {
    let circuit = qasm::from_qasm(&request.qasm).map_err(|e| format!("invalid qasm: {e}"))?;
    if circuit.num_qubits() > max_qubits {
        return Err(format!(
            "circuit is {} qubits wide, exceeding the service limit of {max_qubits}",
            circuit.num_qubits()
        ));
    }
    let requested =
        ShardKey::for_request(request.objective, request.device_pin, circuit.num_qubits());
    let routed = registry.route(requested).ok_or_else(|| {
        format!(
            "no shard registered for `{}` (available: {})",
            requested.name(),
            registry
                .keys()
                .iter()
                .map(ShardKey::name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let key = CacheKey {
        circuit_hash: circuit.structural_hash(),
        device_pin: request.device_pin,
        shard: routed.key,
        generation: routed.generation,
    };
    Ok((
        key,
        ShardRoute {
            shard: routed.key,
            level: routed.level,
        },
        circuit,
        routed.model,
    ))
}

/// Convenience wrapper used by tests and the bench harness: admission
/// errors aside, returns only whether every response body matches
/// between a parallel and a serial execution of `requests`.
pub fn parallel_matches_serial(
    registry: &ModelRegistry,
    master_seed: u64,
    requests: &[ServeRequest],
    capacity: usize,
    shards: usize,
) -> bool {
    let run = |parallel: bool| {
        let options = BatchOptions {
            parallel,
            ..BatchOptions::default()
        };
        let cache = ResultCache::new(capacity, shards);
        run_batch(registry, &cache, master_seed, &options, requests, None).responses
    };
    let (serial, parallel) = (run(false), run(true));
    serial.len() == parallel.len()
        && serial
            .iter()
            .zip(parallel.iter())
            .all(|(a, b)| a.body_value() == b.body_value())
}
