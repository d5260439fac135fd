//! # qrc-circuit
//!
//! Quantum circuit intermediate representation for the `mqt-predictor`
//! workspace — a Rust reproduction of *Compiler Optimization for Quantum
//! Computing Using Reinforcement Learning* (DAC 2023).
//!
//! This crate provides:
//!
//! * [`QuantumCircuit`] — the gate-level IR every compilation pass consumes
//!   and produces (the paper's "unified interface"),
//! * [`Gate`] — the gate set (with matrices, inverses, Clifford/diagonal
//!   predicates),
//! * [`metrics`] — depth, critical depth, interaction degrees,
//! * [`FeatureVector`] — the seven observation features for the RL agent,
//! * [`commute`] — exact and rule-based commutation checking,
//! * [`qasm`] — OpenQASM 2 emit/parse,
//! * [`math`] — minimal complex/matrix arithmetic shared by the simulator
//!   and the resynthesis passes.
//!
//! # Examples
//!
//! ```
//! use qrc_circuit::{QuantumCircuit, FeatureVector, metrics};
//!
//! let mut qc = QuantumCircuit::with_name(3, "ghz3");
//! qc.h(0).cx(0, 1).cx(1, 2).measure_all();
//!
//! assert_eq!(metrics::depth(&qc), 4);
//! assert_eq!(qc.num_two_qubit_gates(), 2);
//! let features = FeatureVector::of(&qc);
//! assert!(features.is_normalized());
//! ```

#![warn(missing_docs)]

mod circuit;
pub mod commute;
mod error;
pub mod features;
mod gate;
pub mod math;
pub mod metrics;
pub mod qasm;
#[cfg(feature = "proptest-support")]
pub mod strategies;

pub use circuit::{Operation, Qargs, QuantumCircuit, Qubit};
pub use error::CircuitError;
pub use features::{FeatureVector, NUM_FEATURES};
pub use gate::{normalize_angle, normalize_angle_4pi, Gate, Params, ANGLE_TOL};
