//! # mqt-predictor
//!
//! A Rust reproduction of *Compiler Optimization for Quantum Computing
//! Using Reinforcement Learning* (Quetschlich, Burgholzer, Wille —
//! DAC 2023): quantum circuit compilation modeled as a Markov Decision
//! Process and optimized with PPO, mixing compilation passes from Qiskit
//! and TKET behind one unified interface.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`circuit`] — circuit IR, structural metrics, features, OpenQASM 2,
//! * [`sim`] — statevector simulation and equivalence checking,
//! * [`device`] — the five target devices with synthetic calibration,
//! * [`passes`] — synthesis, layout, routing, and optimization passes,
//! * [`rl`] — MLP + PPO with invalid-action masking,
//! * [`benchgen`] — the 22 MQT-Bench benchmark families,
//! * [`predictor`] — the compilation MDP, rewards, baselines, and
//!   train/compile API,
//! * [`serve`] — the long-lived compilation service (model registry,
//!   content-addressed result cache, batch scheduler, and a pipelined
//!   NDJSON front end over TCP or stdin with back-pressure, limits,
//!   live stats, and graceful shutdown).
//!
//! # Examples
//!
//! ```
//! use mqt_predictor::prelude::*;
//!
//! // Compile a benchmark with the Qiskit-O3-like baseline.
//! let qc = BenchmarkFamily::Ghz.generate(4);
//! let compiled = Baseline::QiskitO3
//!     .compile(&qc, DeviceId::IbmqMontreal, 0)
//!     .unwrap();
//! let dev = Device::get(DeviceId::IbmqMontreal);
//! assert!(dev.check_executable(&compiled));
//! assert!(expected_fidelity(&compiled, &dev) > 0.0);
//! ```

#![warn(missing_docs)]

pub use qrc_benchgen as benchgen;
pub use qrc_circuit as circuit;
pub use qrc_device as device;
pub use qrc_passes as passes;
pub use qrc_predictor as predictor;
pub use qrc_rl as rl;
pub use qrc_serve as serve;
pub use qrc_sim as sim;

/// The most commonly used items in one import.
pub mod prelude {
    pub use qrc_benchgen::{paper_suite, BenchmarkFamily};
    pub use qrc_circuit::{FeatureVector, Gate, QuantumCircuit, Qubit};
    pub use qrc_device::{expected_fidelity, Device, DeviceId, Platform};
    pub use qrc_passes::{Pass, PassContext};
    pub use qrc_predictor::{
        train, Action, Baseline, CompilationFlow, PredictorConfig, RewardKind, TrainedPredictor,
    };
    pub use qrc_rl::{PpoAgent, PpoConfig};
    pub use qrc_sim::{sample_counts, Statevector};
}
