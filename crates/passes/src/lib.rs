//! # qrc-passes
//!
//! Compilation passes for the `mqt-predictor` workspace — Rust
//! re-implementations of every Qiskit and TKET pass the paper (Sec. IV-A)
//! exposes as an action of its reinforcement-learning agent, all behind
//! the unified circuit-in/circuit-out [`Pass`] interface.
//!
//! Each of the 20 pass actions is declared once, in one of four statics
//! listed in the action order the policy's logits follow:
//!
//! | Static | Passes |
//! |--------|--------|
//! | [`SYNTHESIS`] | [`synthesis::BasisTranslator`] |
//! | [`LAYOUTS`] | [`layout::TrivialLayout`], [`layout::DenseLayout`], [`layout::SabreLayout`] |
//! | [`ROUTERS`] | [`routing::BasicSwap`], [`routing::StochasticSwap`], [`routing::SabreSwap`], [`routing::TketRouting`] |
//! | [`OPTIMIZATIONS`] (Qiskit) | [`opt1q::Optimize1qGates`], [`opt1q::CxCancellation`], [`opt1q::CommutativeCancellation`], [`opt1q::CommutativeInverseCancellation`], [`opt1q::RemoveDiagonalGatesBeforeMeasure`], [`opt1q::InverseCancellation`], [`opt2q::OptimizeCliffords`], [`opt2q::ConsolidateBlocks`] |
//! | [`OPTIMIZATIONS`] (TKET) | [`opt2q::PeepholeOptimise2Q`], [`opt2q::CliffordSimp`], [`opt2q::FullPeepholeOptimise`], [`opt1q::RemoveRedundancies`] |
//!
//! Every pass is a unit struct. The few tuning values the search passes
//! have are private constants: `SabreLayout` refines for 3 rounds,
//! `StochasticSwap` runs 20 trials per blocked front, `SabreSwap` weighs
//! a 20-op lookahead by 0.5, and `TketRouting` looks 10 ops ahead.
//!
//! Supporting machinery that a production compiler needs is implemented
//! from scratch and reusable on its own: ZYZ Euler synthesis
//! ([`euler`]), the two-qubit KAK/Cartan decomposition ([`kak`]), and
//! Clifford stabilizer tableaux with Aaronson–Gottesman resynthesis
//! ([`clifford`]).
//!
//! # Examples
//!
//! ```
//! use qrc_circuit::QuantumCircuit;
//! use qrc_passes::{Pass, PassContext};
//! use qrc_passes::opt1q::CxCancellation;
//!
//! let mut qc = QuantumCircuit::new(2);
//! qc.cx(0, 1).cx(0, 1);
//! let out = CxCancellation.apply(&qc, &PassContext::device_free())?;
//! assert!(out.circuit.is_empty());
//! # Ok::<(), qrc_passes::PassError>(())
//! ```

#![warn(missing_docs)]

pub mod clifford;
pub mod euler;
pub mod kak;
pub mod layout;
pub mod opt1q;
pub mod opt2q;
mod pass;
pub mod routing;
pub mod synthesis;

pub use pass::{Pass, PassContext, PassError, PassOutcome, WireEffect};

/// The synthesis action's pass.
pub static SYNTHESIS: &dyn Pass = &synthesis::BasisTranslator;

/// The three layout actions' passes, in the paper's order.
pub static LAYOUTS: [&dyn Pass; 3] = [
    &layout::TrivialLayout,
    &layout::DenseLayout,
    &layout::SabreLayout,
];

/// The four routing actions' passes, in the paper's order.
pub static ROUTERS: [&dyn Pass; 4] = [
    &routing::BasicSwap,
    &routing::StochasticSwap,
    &routing::SabreSwap,
    &routing::TketRouting,
];

/// The twelve optimization actions' passes, in the paper's listing order.
pub static OPTIMIZATIONS: [&dyn Pass; 12] = [
    &opt1q::Optimize1qGates,
    &opt1q::CxCancellation,
    &opt1q::CommutativeCancellation,
    &opt1q::CommutativeInverseCancellation,
    &opt1q::RemoveDiagonalGatesBeforeMeasure,
    &opt1q::InverseCancellation,
    &opt2q::OptimizeCliffords,
    &opt2q::ConsolidateBlocks,
    &opt2q::PeepholeOptimise2Q,
    &opt2q::CliffordSimp,
    &opt2q::FullPeepholeOptimise,
    &opt1q::RemoveRedundancies,
];
