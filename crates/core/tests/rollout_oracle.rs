//! The lockstep rollout engine behind every `TrainedPredictor` entry
//! point, checked against the serial loops it replaced.
//!
//! [`finish_rollout`] and [`rollout_entropy`] are the serial greedy
//! rollout and the entropy loop `TrainedPredictor` ran before
//! `compile`, `compile_scored`, `compile_request`, `compile_batch` and
//! the entropy probes shared one engine, kept verbatim but for their
//! profiler hooks. They drive a `PpoAgent` rebuilt from the model's
//! checkpoint, so they read the same weights through the per-vector
//! `act_greedy` and `policy_entropy`. Every entry point must match them
//! in the circuit, the actions, the device, and the bits of reward and
//! entropy.

use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_predictor::{
    observation_of, train, Action, BatchCompileRequest, CompilationFlow, CompilationOutcome,
    FlowError, PredictorConfig, RewardKind, TrainedPredictor, MAX_EPISODE_STEPS,
};
use qrc_rl::{PpoAgent, PpoConfig};

const METRICS: [RewardKind; 3] = [
    RewardKind::ExpectedFidelity,
    RewardKind::CriticalDepth,
    RewardKind::Combination,
];

/// Greedy policy rollout from an arbitrary flow state to *Done* (or
/// the step budget), scoring the result under `metric`.
fn finish_rollout(
    agent: &PpoAgent,
    mut flow: CompilationFlow,
    metric: RewardKind,
) -> CompilationOutcome {
    let all = Action::all();
    for _ in 0..MAX_EPISODE_STEPS {
        if flow.is_done() {
            break;
        }
        let mask = flow.action_mask();
        if !mask.iter().any(|&m| m) {
            break;
        }
        let obs = observation_of(&flow);
        let choice = agent.act_greedy(&obs, &mask);
        if flow.apply(all[choice]).is_err() {
            break;
        }
    }
    outcome_of(flow, metric)
}

/// Scores a finished (or stuck) flow under `metric` and packages the
/// outcome.
fn outcome_of(flow: CompilationFlow, metric: RewardKind) -> CompilationOutcome {
    let reward = match (flow.is_done(), flow.device()) {
        (true, Some(dev)) => metric.evaluate(flow.circuit(), dev),
        _ => 0.0,
    };
    CompilationOutcome {
        device: flow.device().map(|d| d.id()),
        actions: flow.history().to_vec(),
        reward,
        circuit: flow.into_circuit(),
    }
}

/// The old `compile_request`: pinned through `pin_device` when the
/// request named a device, a free rollout otherwise.
fn compile_request(
    agent: &PpoAgent,
    metric: RewardKind,
    circuit: &QuantumCircuit,
    pin: Option<DeviceId>,
    seed: u64,
) -> Result<CompilationOutcome, FlowError> {
    let mut flow = CompilationFlow::new(circuit.clone(), seed);
    if let Some(pin) = pin {
        flow.pin_device(Device::get(pin))?;
    }
    Ok(finish_rollout(agent, flow, metric))
}

/// Mean entropy (nats) of the masked policy distribution over the
/// states of the deterministic greedy rollout on `circuit`.
fn rollout_entropy(agent: &PpoAgent, seed: u64, circuit: &QuantumCircuit) -> f64 {
    let all = Action::all();
    let mut flow = CompilationFlow::new(circuit.clone(), seed);
    let mut sum = 0.0;
    let mut states = 0usize;
    for _ in 0..MAX_EPISODE_STEPS {
        if flow.is_done() {
            break;
        }
        let mask = flow.action_mask();
        if !mask.iter().any(|&m| m) {
            break;
        }
        let obs = observation_of(&flow);
        sum += agent.policy_entropy(&obs, &mask);
        states += 1;
        let choice = agent.act_greedy(&obs, &mask);
        if flow.apply(all[choice]).is_err() {
            break;
        }
    }
    if states == 0 {
        0.0
    } else {
        sum / states as f64
    }
}

/// The agent inside `model`, rebuilt from its checkpoint.
fn agent_of(model: &TrainedPredictor) -> PpoAgent {
    let checkpoint = serde_json::from_str(&model.to_json()).expect("checkpoint is JSON");
    PpoAgent::from_value(checkpoint.get("agent").expect("checkpoint has an agent"))
        .expect("checkpoint agent parses")
}

/// Circuits of the paper suite's cheapest families (GHZ, DJ, graph
/// state, W state, QFT), one per width in turn.
fn suite(widths: &[u32]) -> Vec<QuantumCircuit> {
    use qrc_benchgen::BenchmarkFamily::{Dj, Ghz, GraphState, Qft, WState};
    let families = [Ghz, Dj, GraphState, WState, Qft];
    widths
        .iter()
        .zip(families.iter().cycle())
        .map(|(&n, family)| family.generate(n))
        .collect()
}

/// Small models of every objective at several seeds, trained on 2–6
/// qubits: weak enough that some rollouts stall, strong enough that
/// others reach *Done*.
fn models() -> Vec<TrainedPredictor> {
    let training = suite(&[2, 3, 4, 5, 6]);
    let mut models = Vec::new();
    for seed in [1, 2, 3] {
        for reward in METRICS {
            let config = PredictorConfig {
                reward,
                total_timesteps: 1024,
                ppo: PpoConfig {
                    steps_per_update: 128,
                    minibatch_size: 32,
                    epochs: 3,
                    hidden: vec![32],
                    learning_rate: 1e-3,
                    ..PpoConfig::default()
                },
                seed,
                step_penalty: 0.0,
            };
            models.push(train(training.clone(), &config));
        }
    }
    models
}

fn assert_same(got: &CompilationOutcome, want: &CompilationOutcome, case: &str) {
    assert_eq!(got.actions, want.actions, "{case}: actions");
    assert_eq!(got.device, want.device, "{case}: device");
    assert_eq!(got.circuit, want.circuit, "{case}: circuit");
    assert_eq!(
        got.reward.to_bits(),
        want.reward.to_bits(),
        "{case}: reward {} vs {}",
        got.reward,
        want.reward
    );
}

fn assert_same_result(
    got: &Result<CompilationOutcome, FlowError>,
    want: &Result<CompilationOutcome, FlowError>,
    case: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same(got, want, case),
        (Err(got), Err(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}"),
        (got, want) => panic!("{case}: engine {got:?} vs oracle {want:?}"),
    }
}

/// Whether a rollout picked a device but stopped short of *Done* (a
/// flow with a device is *Done* exactly when its circuit is executable
/// there).
fn stalled_on_a_device(outcome: &CompilationOutcome) -> bool {
    outcome
        .device
        .is_some_and(|d| !Device::get(d).check_executable(&outcome.circuit))
}

#[test]
fn every_entry_point_matches_the_serial_oracle() {
    // 3–12 qubits, each also pinned to every built-in device: the
    // widest fits neither `ionq_harmony` nor `oqc_lucy`, and pins to
    // `ibmq_washington` route there.
    let circuits = suite(&[3, 4, 6, 7, 8, 9, 10, 12]);
    let mut stalled = 0;
    let mut done = 0;
    let mut infeasible = 0;
    let mut mixed_batches = 0;
    for model in models() {
        let agent = agent_of(&model);
        let (reward, seed) = (model.reward(), model.seed());
        let name = format!("{reward}/seed {seed}");
        let mut batch = Vec::new();
        for (i, qc) in circuits.iter().enumerate() {
            let case = format!("{name}/{}", qc.name());
            let want = finish_rollout(&agent, CompilationFlow::new(qc.clone(), seed), reward);
            assert_same(&model.compile(qc), &want, &format!("{case}: compile"));
            stalled += usize::from(stalled_on_a_device(&want));
            done += usize::from(want.reward > 0.0);
            for metric in METRICS {
                let want = finish_rollout(&agent, CompilationFlow::new(qc.clone(), seed), metric);
                let got = model.compile_scored(qc, metric);
                assert_same(&got, &want, &format!("{case}: compile_scored {metric}"));
            }
            let request_seed = 100 + i as u64;
            let pins = std::iter::once(None).chain(DeviceId::ALL.map(Some));
            for pin in pins {
                let want = compile_request(&agent, reward, qc, pin, request_seed);
                let got = model.compile_request(qc, pin, request_seed);
                let pin_name = pin.map_or("none", DeviceId::name);
                assert_same_result(
                    &got,
                    &want,
                    &format!("{case}: compile_request pin {pin_name}"),
                );
                infeasible += usize::from(want.is_err());
                batch.push((qc, pin, request_seed, want));
            }
            let entropy = model.rollout_entropy(qc);
            let want = rollout_entropy(&agent, seed, qc);
            assert_eq!(
                entropy.to_bits(),
                want.to_bits(),
                "{case}: rollout_entropy {entropy} vs {want}"
            );
        }

        let items: Vec<BatchCompileRequest<'_>> = batch
            .iter()
            .map(|&(circuit, pin, seed, _)| BatchCompileRequest { circuit, pin, seed })
            .collect();
        let got = model.compile_batch(&items);
        assert_eq!(got.len(), batch.len());
        for (k, (got, (qc, pin, _, want))) in got.iter().zip(&batch).enumerate() {
            let pin_name = pin.map_or("none", DeviceId::name);
            let case = format!(
                "{name}: compile_batch item {k} ({}, pin {pin_name})",
                qc.name()
            );
            assert_same_result(got, want, &case);
        }
        // A pin takes two actions before the first tick.
        let ticks: std::collections::BTreeSet<usize> = got
            .iter()
            .zip(&batch)
            .filter_map(|(got, (_, pin, ..))| {
                let pinned = if pin.is_some() { 2 } else { 0 };
                Some(got.as_ref().ok()?.actions.len() - pinned)
            })
            .collect();
        mixed_batches += usize::from(ticks.len() > 1);
        assert!(model.compile_batch(&[]).is_empty());

        let mean = model.mean_rollout_entropy(&circuits);
        let want = circuits
            .iter()
            .map(|qc| rollout_entropy(&agent, seed, qc))
            .sum::<f64>()
            / circuits.len() as f64;
        assert_eq!(
            mean.to_bits(),
            want.to_bits(),
            "{name}: mean_rollout_entropy {mean} vs {want}"
        );
        assert_eq!(model.mean_rollout_entropy(&[]), 0.0);
    }
    // The grid reaches every kind of ending the engine handles.
    assert!(
        mixed_batches > 0,
        "every batch finished all its lanes on one tick"
    );
    assert!(done > 0, "no rollout reached Done with a reward");
    assert!(stalled > 0, "no rollout stalled after picking a device");
    assert!(infeasible > 0, "no pin was infeasible");
}
