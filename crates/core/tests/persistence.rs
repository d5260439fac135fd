//! Round-trip tests for model persistence: `TrainedPredictor::save` →
//! `load` must reproduce the original model's behavior exactly, since
//! the serving registry loads checkpoints once and answers traffic from
//! them indefinitely.

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PersistError, PredictorConfig, RewardKind, TrainedPredictor};
use qrc_rl::PpoConfig;

fn tiny_model(reward: RewardKind, seed: u64) -> TrainedPredictor {
    let config = PredictorConfig {
        reward,
        total_timesteps: 1200,
        ppo: PpoConfig {
            steps_per_update: 128,
            minibatch_size: 32,
            epochs: 4,
            hidden: vec![24],
            learning_rate: 1e-3,
            ..PpoConfig::default()
        },
        seed,
        step_penalty: 0.005,
    };
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
    train(suite, &config)
}

/// A scratch path under the system temp dir, unique per test.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qrc_persist_{}_{name}.json", std::process::id()))
}

#[test]
fn save_load_reproduces_actions_exactly() {
    let model = tiny_model(RewardKind::ExpectedFidelity, 5);
    let path = scratch("roundtrip");
    model.save(&path).unwrap();
    let loaded = TrainedPredictor::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.reward(), model.reward());
    assert_eq!(loaded.seed(), model.seed());
    for family in [
        BenchmarkFamily::Ghz,
        BenchmarkFamily::Dj,
        BenchmarkFamily::WState,
    ] {
        let qc = family.generate(3);
        let a = model.compile(&qc);
        let b = loaded.compile(&qc);
        assert_eq!(a.actions, b.actions, "{}", qc.name());
        assert_eq!(a.circuit, b.circuit, "{}", qc.name());
        assert_eq!(a.device, b.device, "{}", qc.name());
        assert_eq!(
            a.reward.to_bits(),
            b.reward.to_bits(),
            "{}: rewards must be bit-equal",
            qc.name()
        );
    }
}

#[test]
fn json_round_trip_is_stable_text() {
    // Serialization is deterministic: serializing the reloaded model
    // yields byte-identical text (bit-exact weights, ordered keys).
    let model = tiny_model(RewardKind::CriticalDepth, 9);
    let text = model.to_json();
    let reloaded = TrainedPredictor::from_json(&text).unwrap();
    assert_eq!(reloaded.to_json(), text);
}

#[test]
fn load_rejects_corrupt_and_foreign_payloads() {
    assert!(matches!(
        TrainedPredictor::from_json("not json at all"),
        Err(PersistError::Format(_))
    ));
    assert!(matches!(
        TrainedPredictor::from_json(r#"{"format":"something-else","version":1}"#),
        Err(PersistError::Format(_))
    ));
    assert!(matches!(
        TrainedPredictor::from_json(r#"{"format":"qrc-trained-predictor","version":999}"#),
        Err(PersistError::Format(_))
    ));
    let missing = std::path::Path::new("/nonexistent/qrc/model.json");
    assert!(matches!(
        TrainedPredictor::load(missing),
        Err(PersistError::Io(_))
    ));
}

#[test]
fn load_rejects_a_checkpoint_with_an_empty_rollout() {
    // A checkpoint that loads must also fine-tune: with no steps per
    // update, the first rollout would be empty and training would panic.
    let untrained = train(
        vec![BenchmarkFamily::Ghz.generate(3)],
        &PredictorConfig::new(RewardKind::ExpectedFidelity, 0),
    );
    let text = untrained.to_json();
    assert!(text.contains(r#""steps_per_update":256"#));
    let text = text.replace(r#""steps_per_update":256"#, r#""steps_per_update":0"#);
    match TrainedPredictor::from_json(&text) {
        Err(PersistError::Format(msg)) => assert!(msg.contains("`steps_per_update`"), "{msg}"),
        other => panic!("expected a format error, got {other:?}"),
    }
}

#[test]
fn compile_request_is_deterministic_per_seed() {
    let model = tiny_model(RewardKind::Combination, 3);
    let qc = BenchmarkFamily::Ghz.generate(4);
    let a = model.compile_request(&qc, None, 42).unwrap();
    let b = model.compile_request(&qc, None, 42).unwrap();
    assert_eq!(a.actions, b.actions);
    assert_eq!(a.circuit, b.circuit);
    // The default path is the model-seed special case.
    let c = model.compile(&qc);
    let d = model.compile_request(&qc, None, model.seed()).unwrap();
    assert_eq!(c.actions, d.actions);
    assert_eq!(c.circuit, d.circuit);
}
