//! # qrc-predictor
//!
//! The paper's contribution: quantum circuit compilation modeled as a
//! Markov Decision Process and optimized with reinforcement learning.
//!
//! * [`Action`] — the 29 discrete actions (platform/device selection,
//!   synthesis, 3 layouts, 4 routings, 12 Qiskit/TKET optimizations),
//! * [`CompilationFlow`] — the Fig. 2 state machine with constraint
//!   checking and legality masks,
//! * [`CompilationEnv`] — the Gym-style RL environment (7 circuit
//!   features + progress encoding as observations, sparse terminal
//!   reward),
//! * [`RewardKind`] — expected fidelity, critical depth, combination,
//! * [`Baseline`] — Qiskit-O3-like and TKET-O2-like reference pipelines,
//! * [`train`] / [`TrainedPredictor`] — PPO training, and compilation
//!   by one lockstep greedy rollout: a single request is a batch of
//!   one, and the entropy probes observe the same loop.
//!
//! # Examples
//!
//! Compiling with a baseline:
//!
//! ```
//! use qrc_predictor::Baseline;
//! use qrc_benchgen::BenchmarkFamily;
//! use qrc_device::{Device, DeviceId};
//!
//! let qc = BenchmarkFamily::Ghz.generate(4);
//! let compiled = Baseline::QiskitO3
//!     .compile(&qc, DeviceId::IbmqWashington, 0)
//!     .unwrap();
//! assert!(Device::get(DeviceId::IbmqWashington).check_executable(&compiled));
//! ```

#![warn(missing_docs)]

mod action;
mod baseline;
mod env;
mod flow;
mod predictor;
mod reward;

pub use action::{Action, LayoutMethod, OptPass, RoutingMethod};
pub use baseline::Baseline;
pub use env::{
    observation_of, CompilationEnv, InvalidActionMode, ObservationMode, MAX_EPISODE_STEPS, OBS_DIM,
};
pub use flow::{CompilationFlow, FlowError, FlowState, MaskSignature};
pub use predictor::{
    atomic_write, train, train_with_progress, BatchCompileRequest, CompilationOutcome,
    FineTuneConfig, PersistError, PredictorConfig, TrainedPredictor,
};
pub use reward::RewardKind;

/// Derives a deterministic per-task seed from a master seed and a task
/// index (SplitMix64-style mixing).
///
/// Giving every parallel work item its own derived seed — instead of
/// threading one RNG through a serial loop — is what makes the
/// rayon-parallel evaluation and serving paths produce results
/// byte-identical to the serial ones, regardless of scheduling order.
/// The serving scheduler additionally passes a *content hash* as the
/// index, making results independent of request arrival order too.
pub fn task_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
