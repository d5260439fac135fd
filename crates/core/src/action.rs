//! The discrete action space of the compilation MDP (paper Sec. IV-A).
//!
//! 29 actions: 4 platform selections, 5 device selections, 1 synthesis,
//! 3 layout methods, 4 routing methods, and 12 optimization passes drawn
//! from both Qiskit and TKET.

use qrc_device::{DeviceId, Platform};
use qrc_passes::Pass;
use serde::{Deserialize, Serialize};

/// The three layout methods, in [`qrc_passes::LAYOUTS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutMethod {
    /// Qiskit `TrivialLayout`.
    Trivial,
    /// Qiskit `DenseLayout`.
    Dense,
    /// Qiskit `SabreLayout`.
    Sabre,
}

/// The four routing methods, in [`qrc_passes::ROUTERS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingMethod {
    /// Qiskit `BasicSwap`.
    Basic,
    /// Qiskit `StochasticSwap`.
    Stochastic,
    /// Qiskit `SabreSwap`.
    Sabre,
    /// TKET `RoutingPass` (with BRIDGE support).
    Tket,
}

/// The twelve optimization passes, in [`qrc_passes::OPTIMIZATIONS`]
/// order (the paper's listing order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptPass {
    /// Qiskit `Optimize1qGatesDecomposition`.
    Optimize1qGates,
    /// Qiskit `CXCancellation`.
    CxCancellation,
    /// Qiskit `CommutativeCancellation`.
    CommutativeCancellation,
    /// Qiskit `CommutativeInverseCancellation`.
    CommutativeInverseCancellation,
    /// Qiskit `RemoveDiagonalGatesBeforeMeasure`.
    RemoveDiagonalGatesBeforeMeasure,
    /// Qiskit `InverseCancellation`.
    InverseCancellation,
    /// Qiskit `OptimizeCliffords`.
    OptimizeCliffords,
    /// Qiskit `Collect2qBlocks` + `ConsolidateBlocks`.
    ConsolidateBlocks,
    /// TKET `PeepholeOptimise2Q`.
    PeepholeOptimise2Q,
    /// TKET `CliffordSimp`.
    CliffordSimp,
    /// TKET `FullPeepholeOptimise`.
    FullPeepholeOptimise,
    /// TKET `RemoveRedundancies`.
    RemoveRedundancies,
}

impl OptPass {
    /// The pass this optimization action runs.
    pub fn pass(self) -> &'static dyn Pass {
        qrc_passes::OPTIMIZATIONS[self as usize]
    }
}

/// One action of the compilation MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Choose a hardware platform (fixes the native gate set).
    SelectPlatform(Platform),
    /// Choose a device of the selected platform (fixes qubits/topology).
    SelectDevice(DeviceId),
    /// Qiskit `BasisTranslator` to the platform's native gates.
    Synthesize,
    /// Apply an initial layout.
    Layout(LayoutMethod),
    /// Route to satisfy the coupling constraints.
    Route(RoutingMethod),
    /// A device-independent or device-dependent optimization pass.
    Optimize(OptPass),
}

impl Action {
    /// Every action, in the policy's logit order: platforms, devices,
    /// synthesis, layouts, routings, optimizations. Checkpoints bake in
    /// this order, and [`Action::name`] of each is served text.
    pub const ALL: [Action; 29] = [
        Action::SelectPlatform(Platform::Ibm),
        Action::SelectPlatform(Platform::Rigetti),
        Action::SelectPlatform(Platform::Ionq),
        Action::SelectPlatform(Platform::Oqc),
        Action::SelectDevice(DeviceId::IbmqMontreal),
        Action::SelectDevice(DeviceId::IbmqWashington),
        Action::SelectDevice(DeviceId::RigettiAspenM2),
        Action::SelectDevice(DeviceId::IonqHarmony),
        Action::SelectDevice(DeviceId::OqcLucy),
        Action::Synthesize,
        Action::Layout(LayoutMethod::Trivial),
        Action::Layout(LayoutMethod::Dense),
        Action::Layout(LayoutMethod::Sabre),
        Action::Route(RoutingMethod::Basic),
        Action::Route(RoutingMethod::Stochastic),
        Action::Route(RoutingMethod::Sabre),
        Action::Route(RoutingMethod::Tket),
        Action::Optimize(OptPass::Optimize1qGates),
        Action::Optimize(OptPass::CxCancellation),
        Action::Optimize(OptPass::CommutativeCancellation),
        Action::Optimize(OptPass::CommutativeInverseCancellation),
        Action::Optimize(OptPass::RemoveDiagonalGatesBeforeMeasure),
        Action::Optimize(OptPass::InverseCancellation),
        Action::Optimize(OptPass::OptimizeCliffords),
        Action::Optimize(OptPass::ConsolidateBlocks),
        Action::Optimize(OptPass::PeepholeOptimise2Q),
        Action::Optimize(OptPass::CliffordSimp),
        Action::Optimize(OptPass::FullPeepholeOptimise),
        Action::Optimize(OptPass::RemoveRedundancies),
    ];

    /// Number of actions in [`Action::ALL`].
    pub const COUNT: usize = Action::ALL.len();

    /// [`Action::ALL`], by value.
    pub fn all() -> [Action; Action::COUNT] {
        Action::ALL
    }

    /// A short stable name for reports.
    pub fn name(&self) -> String {
        match self {
            Action::SelectPlatform(p) => format!("platform:{p}"),
            Action::SelectDevice(d) => format!("device:{d}"),
            Action::Synthesize => "synthesize".to_string(),
            Action::Layout(LayoutMethod::Trivial) => "layout:trivial".into(),
            Action::Layout(LayoutMethod::Dense) => "layout:dense".into(),
            Action::Layout(LayoutMethod::Sabre) => "layout:sabre".into(),
            Action::Route(RoutingMethod::Basic) => "route:basic".into(),
            Action::Route(RoutingMethod::Stochastic) => "route:stochastic".into(),
            Action::Route(RoutingMethod::Sabre) => "route:sabre".into(),
            Action::Route(RoutingMethod::Tket) => "route:tket".into(),
            Action::Optimize(o) => format!("opt:{}", o.pass().name()),
        }
    }

    /// The pass this action runs; `None` for the platform and device
    /// selections, which run none.
    pub fn pass(self) -> Option<&'static dyn Pass> {
        match self {
            Action::SelectPlatform(_) | Action::SelectDevice(_) => None,
            Action::Synthesize => Some(qrc_passes::SYNTHESIS),
            Action::Layout(m) => Some(qrc_passes::LAYOUTS[m as usize]),
            Action::Route(m) => Some(qrc_passes::ROUTERS[m as usize]),
            Action::Optimize(o) => Some(o.pass()),
        }
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_count_matches_paper_structure() {
        let all = Action::all();
        assert_eq!(all.len(), Action::COUNT);
        let platforms = all
            .iter()
            .filter(|a| matches!(a, Action::SelectPlatform(_)))
            .count();
        let devices = all
            .iter()
            .filter(|a| matches!(a, Action::SelectDevice(_)))
            .count();
        let opts = all
            .iter()
            .filter(|a| matches!(a, Action::Optimize(_)))
            .count();
        assert_eq!(platforms, 4);
        assert_eq!(devices, 5);
        assert_eq!(opts, 12);
    }

    #[test]
    fn action_names_are_unique() {
        let all = Action::all();
        let names: std::collections::BTreeSet<String> = all.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn every_opt_pass_instantiates() {
        let mut qc = qrc_circuit::QuantumCircuit::new(2);
        qc.h(0).cx(0, 1).cx(0, 1);
        for action in Action::ALL {
            if let Action::Optimize(o) = action {
                let pass = o.pass();
                let out = pass.apply(&qc, &qrc_passes::PassContext::device_free());
                assert!(out.is_ok(), "{} needs a device", pass.name());
            }
        }
    }

    /// The policy's logit layout, the served action names and the pass
    /// behind each action, as recorded before the catalog became one
    /// list: a reordered or renamed action breaks every checkpoint and
    /// served trace.
    #[test]
    fn catalog_order_and_names_are_pinned() {
        const CATALOG: [(&str, Option<&str>); Action::COUNT] = [
            ("platform:ibm", None),
            ("platform:rigetti", None),
            ("platform:ionq", None),
            ("platform:oqc", None),
            ("device:ibmq_montreal", None),
            ("device:ibmq_washington", None),
            ("device:rigetti_aspen_m2", None),
            ("device:ionq_harmony", None),
            ("device:oqc_lucy", None),
            ("synthesize", Some("BasisTranslator")),
            ("layout:trivial", Some("TrivialLayout")),
            ("layout:dense", Some("DenseLayout")),
            ("layout:sabre", Some("SabreLayout")),
            ("route:basic", Some("BasicSwap")),
            ("route:stochastic", Some("StochasticSwap")),
            ("route:sabre", Some("SabreSwap")),
            ("route:tket", Some("TketRouting")),
            (
                "opt:Optimize1qGatesDecomposition",
                Some("Optimize1qGatesDecomposition"),
            ),
            ("opt:CXCancellation", Some("CXCancellation")),
            (
                "opt:CommutativeCancellation",
                Some("CommutativeCancellation"),
            ),
            (
                "opt:CommutativeInverseCancellation",
                Some("CommutativeInverseCancellation"),
            ),
            (
                "opt:RemoveDiagonalGatesBeforeMeasure",
                Some("RemoveDiagonalGatesBeforeMeasure"),
            ),
            ("opt:InverseCancellation", Some("InverseCancellation")),
            ("opt:OptimizeCliffords", Some("OptimizeCliffords")),
            (
                "opt:Collect2qBlocks+ConsolidateBlocks",
                Some("Collect2qBlocks+ConsolidateBlocks"),
            ),
            ("opt:PeepholeOptimise2Q", Some("PeepholeOptimise2Q")),
            ("opt:CliffordSimp", Some("CliffordSimp")),
            ("opt:FullPeepholeOptimise", Some("FullPeepholeOptimise")),
            ("opt:RemoveRedundancies", Some("RemoveRedundancies")),
        ];
        for (action, (name, pass)) in Action::ALL.into_iter().zip(CATALOG) {
            assert_eq!(action.name(), name);
            assert_eq!(action.pass().map(|p| p.name()), pass, "{name}");
        }
    }
}
