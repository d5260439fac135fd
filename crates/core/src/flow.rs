//! The compilation flow: the MDP's deterministic transition engine.
//!
//! [`CompilationFlow`] holds the working circuit plus the progress of the
//! paper's Fig. 2 state machine (platform chosen → device chosen → only
//! native gates → done) and applies [`Action`]s with full legality
//! checking — the same engine drives RL training, greedy inference, and
//! the baseline compilers.

use crate::action::Action;
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId, Platform};
use qrc_passes::{PassContext, PassError, WireEffect};
use serde::{Deserialize, Serialize};

/// The states of the paper's compilation MDP (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowState {
    /// Initial state: device-independent circuit.
    Start,
    /// A platform (native gate set) has been fixed.
    PlatformChosen,
    /// A device has been fixed; neither executability condition holds yet.
    DeviceChosen,
    /// Condition 1 holds: only native gates.
    OnlyNativeGates,
    /// Both conditions hold: the circuit is executable.
    Done,
}

impl FlowState {
    /// Index used for one-hot observation encoding.
    pub const fn index(self) -> usize {
        match self {
            FlowState::Start => 0,
            FlowState::PlatformChosen => 1,
            FlowState::DeviceChosen => 2,
            FlowState::OnlyNativeGates => 3,
            FlowState::Done => 4,
        }
    }
}

/// Everything [`CompilationFlow::action_mask`] depends on, as a
/// hashable key. Two flows with equal signatures have equal masks, so
/// batched rollout engines memoize the mask per signature instead of
/// recomputing it per flow per step. See
/// [`CompilationFlow::mask_signature`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MaskSignature {
    /// [`FlowState::index`] of the current state.
    pub state: usize,
    /// Canonical name of the chosen platform, if any.
    pub platform: Option<&'static str>,
    /// Canonical name of the chosen device, if any.
    pub device: Option<&'static str>,
    /// Whether a layout pass has been applied.
    pub layout_applied: bool,
    /// Width of the original (uncompiled) circuit.
    pub width: u32,
}

/// The live state of one compilation episode.
#[derive(Debug, Clone)]
pub struct CompilationFlow {
    circuit: QuantumCircuit,
    original_width: u32,
    platform: Option<Platform>,
    device: Option<Device>,
    /// Logical → physical placement chosen by the layout action (set
    /// once a layout has been applied).
    initial_layout: Option<Vec<u32>>,
    /// Cumulative wire permutation from routing: content that started at
    /// physical position `w` now lives at `perm[w]`.
    perm: Option<Vec<u32>>,
    state: FlowState,
    seed: u64,
    steps: usize,
    history: Vec<Action>,
}

impl CompilationFlow {
    /// Starts a flow on `circuit` with a determinism seed for the
    /// stochastic passes.
    pub fn new(circuit: QuantumCircuit, seed: u64) -> Self {
        let original_width = circuit.num_qubits();
        CompilationFlow {
            circuit,
            original_width,
            platform: None,
            device: None,
            initial_layout: None,
            perm: None,
            state: FlowState::Start,
            seed,
            steps: 0,
            history: Vec::new(),
        }
    }

    /// The current working circuit.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// The current MDP state.
    pub fn state(&self) -> FlowState {
        self.state
    }

    /// The selected device (once in `DeviceChosen` or later).
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// The selected platform.
    pub fn platform(&self) -> Option<Platform> {
        self.platform
    }

    /// Actions applied so far.
    pub fn history(&self) -> &[Action] {
        &self.history
    }

    /// Number of actions applied so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The initial and final logical→physical layouts, if defined.
    ///
    /// Before any layout action both are the identity over the current
    /// circuit width (executable circuits implicitly use the trivial
    /// placement). After layout/routing actions they reflect the chosen
    /// placement and the cumulative routing permutation, suitable for
    /// `qrc_sim::equiv::mapped_circuit_equivalent`-style checks.
    pub fn layouts(&self) -> (Vec<u32>, Vec<u32>) {
        let initial: Vec<u32> = match &self.initial_layout {
            Some(l) => l.clone(),
            None => (0..self.original_width).collect(),
        };
        let final_: Vec<u32> = match &self.perm {
            Some(p) => initial.iter().map(|&q| p[q as usize]).collect(),
            None => initial.clone(),
        };
        (initial, final_)
    }

    /// Whether both executability conditions currently hold.
    pub fn is_done(&self) -> bool {
        self.state == FlowState::Done
    }

    /// The legality mask over [`Action::ALL`], in the same order.
    pub fn action_mask(&self) -> Vec<bool> {
        Action::ALL.iter().map(|a| self.is_legal(*a)).collect()
    }

    /// A compact hashable key over every input [`action_mask`] reads:
    /// the Fig. 2 state, the chosen platform/device (if any), whether a
    /// layout has been applied, and the original circuit width. The
    /// mask is a *pure function* of this signature, so rollout engines
    /// that hold many concurrent flows (the batched serving scheduler)
    /// compute each distinct mask once per `(device, width, phase)`
    /// combination and share it, instead of re-deriving it per flow per
    /// step.
    ///
    /// [`action_mask`]: CompilationFlow::action_mask
    pub fn mask_signature(&self) -> MaskSignature {
        MaskSignature {
            state: self.state.index(),
            platform: self.platform.map(|p| p.name()),
            device: self.device.as_ref().map(|d| d.id().name()),
            layout_applied: self.initial_layout.is_some(),
            width: self.original_width,
        }
    }

    /// Whether `action` may be applied in the current state.
    pub fn is_legal(&self, action: Action) -> bool {
        let n = self.original_width;
        match action {
            Action::SelectPlatform(p) => {
                self.state == FlowState::Start
                    && DeviceId::of_platform(p)
                        .iter()
                        .any(|d| Device::get(*d).num_qubits() >= n)
            }
            Action::SelectDevice(d) => {
                self.state == FlowState::PlatformChosen
                    && Some(d.platform()) == self.platform
                    && Device::get(d).num_qubits() >= n
            }
            Action::Synthesize => self.device.is_some() && self.state != FlowState::Done,
            Action::Layout(_) => {
                self.device.is_some()
                    && self.initial_layout.is_none()
                    && self.state != FlowState::Done
            }
            Action::Route(_) => {
                self.device.is_some()
                    && self.initial_layout.is_some()
                    && self.state != FlowState::Done
            }
            // Optimizations are legal in every non-terminal state
            // (the blue self-loops of Fig. 2).
            Action::Optimize(_) => self.state != FlowState::Done,
        }
    }

    /// Applies `action`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IllegalAction`] when `action` is masked out, or
    /// a [`FlowError::Pass`] if the underlying pass fails (which the
    /// legality mask makes unreachable in normal use).
    pub fn apply(&mut self, action: Action) -> Result<(), FlowError> {
        if !self.is_legal(action) {
            return Err(FlowError::IllegalAction {
                action: action.name(),
                state: self.state,
            });
        }
        // Stochastic passes get a per-step deterministic seed.
        let step_seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.steps as u64);
        match action {
            Action::SelectPlatform(p) => {
                self.platform = Some(p);
                self.state = FlowState::PlatformChosen;
            }
            Action::SelectDevice(d) => {
                self.device = Some(Device::get(d));
                self.refresh_state();
            }
            _ => {
                let pass = action.pass().expect("every other action runs a pass");
                self.run_pass(pass, step_seed)?;
            }
        }
        self.steps += 1;
        self.history.push(action);
        Ok(())
    }

    /// Pins `device` directly, as served requests with an explicit
    /// device pin do: equivalent to applying `SelectPlatform` +
    /// `SelectDevice` (same two history entries, same step count, no
    /// RNG consumed) but resolved against the *given* device model
    /// rather than the built-in action set. This is what makes dynamic
    /// registry devices reachable — `SelectPlatform` legality only
    /// considers the five built-ins, so a pin to, say, a 16-qubit ring
    /// on the OQC platform would otherwise be rejected because the
    /// built-in Lucy has 8 qubits. For built-in pins that fit, the
    /// resulting flow is indistinguishable from the two-action path.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::IllegalAction`] unless the flow is in
    /// `Start` and the circuit fits the device.
    pub fn pin_device(&mut self, device: Device) -> Result<(), FlowError> {
        if self.state != FlowState::Start || device.num_qubits() < self.original_width {
            return Err(FlowError::IllegalAction {
                action: format!("pin:{}", device.name()),
                state: self.state,
            });
        }
        let platform = device.platform();
        let id = device.id();
        self.platform = Some(platform);
        self.state = FlowState::PlatformChosen;
        self.steps += 1;
        self.history.push(Action::SelectPlatform(platform));
        self.device = Some(device);
        self.refresh_state();
        self.steps += 1;
        self.history.push(Action::SelectDevice(id));
        Ok(())
    }

    fn run_pass(&mut self, pass: &dyn qrc_passes::Pass, seed: u64) -> Result<(), FlowError> {
        let ctx = match &self.device {
            Some(dev) => PassContext::for_device(dev).with_seed(seed),
            None => PassContext::device_free().with_seed(seed),
        };
        // `apply_timed` feeds the per-pass histograms of the global
        // profiler when it is enabled (qrc-serve does at startup).
        let outcome = pass
            .apply_timed(&self.circuit, &ctx)
            .map_err(FlowError::Pass)?;
        self.circuit = outcome.circuit;
        match outcome.effect {
            WireEffect::Rewrite => {}
            WireEffect::SetLayout(layout) => {
                self.initial_layout = Some(layout);
                self.perm = None;
            }
            WireEffect::Permute(p) => {
                self.perm = Some(match self.perm.take() {
                    // Compose: positions after the earlier permutation are
                    // the inputs of the new one.
                    Some(prev) => prev.iter().map(|&w| p[w as usize]).collect(),
                    None => p,
                });
            }
        }
        self.refresh_state();
        Ok(())
    }

    /// Re-derives the Fig. 2 state from the circuit and the constraints.
    fn refresh_state(&mut self) {
        self.state = match (&self.platform, &self.device) {
            (None, _) => FlowState::Start,
            (Some(_), None) => FlowState::PlatformChosen,
            (Some(_), Some(dev)) => {
                let native = dev.check_native_gates(&self.circuit);
                let mapped = dev.check_connectivity(&self.circuit);
                match (native, mapped) {
                    (true, true) => FlowState::Done,
                    (true, false) => FlowState::OnlyNativeGates,
                    _ => FlowState::DeviceChosen,
                }
            }
        };
    }

    /// Records a wasted step (an illegal action in penalty-mode training)
    /// so the episode budget still counts it.
    pub fn note_wasted_step(&mut self) {
        self.steps += 1;
    }

    /// Consumes the flow, returning the compiled circuit.
    pub fn into_circuit(self) -> QuantumCircuit {
        self.circuit
    }
}

/// Errors from applying actions to a flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The action is not legal in the current state.
    IllegalAction {
        /// The rejected action.
        action: String,
        /// The state it was attempted in.
        state: FlowState,
    },
    /// The underlying compilation pass failed.
    Pass(PassError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::IllegalAction { action, state } => {
                write!(f, "action `{action}` is illegal in state {state:?}")
            }
            FlowError::Pass(e) => write!(f, "pass failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Pass(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{LayoutMethod, RoutingMethod};
    use qrc_device::DeviceId;

    fn ghz(n: u32) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        qc.h(0);
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn start_state_masks() {
        let flow = CompilationFlow::new(ghz(3), 0);
        assert_eq!(flow.state(), FlowState::Start);
        assert!(flow.is_legal(Action::SelectPlatform(Platform::Ibm)));
        assert!(!flow.is_legal(Action::SelectDevice(DeviceId::IbmqMontreal)));
        assert!(!flow.is_legal(Action::Synthesize));
        assert!(!flow.is_legal(Action::Layout(LayoutMethod::Trivial)));
        assert!(flow.is_legal(Action::Optimize(crate::action::OptPass::CxCancellation)));
    }

    #[test]
    fn wide_circuits_mask_small_platforms() {
        let flow = CompilationFlow::new(ghz(12), 0);
        // OQC Lucy has 8 qubits, IonQ Harmony 11: both too small for 12.
        assert!(!flow.is_legal(Action::SelectPlatform(Platform::Oqc)));
        assert!(!flow.is_legal(Action::SelectPlatform(Platform::Ionq)));
        assert!(flow.is_legal(Action::SelectPlatform(Platform::Ibm)));
        assert!(flow.is_legal(Action::SelectPlatform(Platform::Rigetti)));
    }

    /// A circuit whose interactions cannot sit on a line: needs routing.
    fn star(n: u32) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        qc.h(0);
        for q in 1..n {
            qc.cx(0, q);
        }
        qc.measure_all();
        qc
    }

    #[test]
    fn full_manual_flow_reaches_done() {
        let mut flow = CompilationFlow::new(star(5), 7);
        flow.apply(Action::SelectPlatform(Platform::Ibm)).unwrap();
        assert_eq!(flow.state(), FlowState::PlatformChosen);
        flow.apply(Action::SelectDevice(DeviceId::IbmqMontreal))
            .unwrap();
        assert_ne!(flow.state(), FlowState::Start);
        flow.apply(Action::Synthesize).unwrap();
        assert_ne!(
            flow.state(),
            FlowState::Done,
            "a degree-4 star cannot be executable on heavy-hex unrouted"
        );
        flow.apply(Action::Layout(LayoutMethod::Sabre)).unwrap();
        flow.apply(Action::Route(RoutingMethod::Sabre)).unwrap();
        // Routing may insert SWAPs (non-native): resynthesize.
        if flow.state() != FlowState::Done {
            flow.apply(Action::Synthesize).unwrap();
        }
        assert_eq!(
            flow.state(),
            FlowState::Done,
            "history: {:?}",
            flow.history()
        );
        let dev = flow.device().unwrap();
        assert!(dev.check_executable(flow.circuit()));
    }

    #[test]
    fn done_state_masks_everything() {
        let mut flow = CompilationFlow::new(ghz(2), 0);
        flow.apply(Action::SelectPlatform(Platform::Ibm)).unwrap();
        flow.apply(Action::SelectDevice(DeviceId::IbmqMontreal))
            .unwrap();
        flow.apply(Action::Synthesize).unwrap();
        // ghz(2) on montreal: qubits 0,1 are coupled — already Done.
        assert_eq!(flow.state(), FlowState::Done);
        assert!(flow.action_mask().iter().all(|&m| !m));
    }

    #[test]
    fn illegal_action_rejected() {
        let mut flow = CompilationFlow::new(ghz(3), 0);
        let err = flow.apply(Action::Synthesize).unwrap_err();
        assert!(matches!(err, FlowError::IllegalAction { .. }));
        assert_eq!(flow.steps(), 0);
    }

    #[test]
    fn device_only_from_matching_platform() {
        let mut flow = CompilationFlow::new(ghz(3), 0);
        flow.apply(Action::SelectPlatform(Platform::Rigetti))
            .unwrap();
        assert!(!flow.is_legal(Action::SelectDevice(DeviceId::IbmqMontreal)));
        assert!(flow.is_legal(Action::SelectDevice(DeviceId::RigettiAspenM2)));
    }

    #[test]
    fn routing_requires_layout() {
        let mut flow = CompilationFlow::new(ghz(4), 0);
        flow.apply(Action::SelectPlatform(Platform::Oqc)).unwrap();
        flow.apply(Action::SelectDevice(DeviceId::OqcLucy)).unwrap();
        assert!(!flow.is_legal(Action::Route(RoutingMethod::Basic)));
        flow.apply(Action::Layout(LayoutMethod::Trivial)).unwrap();
        assert!(flow.is_legal(Action::Route(RoutingMethod::Basic)));
        // Layout cannot be applied twice.
        assert!(!flow.is_legal(Action::Layout(LayoutMethod::Dense)));
    }

    #[test]
    fn optimizations_run_in_start_state() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).cx(0, 1);
        let mut flow = CompilationFlow::new(qc, 0);
        flow.apply(Action::Optimize(crate::action::OptPass::CxCancellation))
            .unwrap();
        assert!(flow.circuit().is_empty());
        assert_eq!(flow.state(), FlowState::Start);
    }

    #[test]
    fn pin_device_matches_the_two_action_path_exactly() {
        let mut via_actions = CompilationFlow::new(star(5), 9);
        via_actions
            .apply(Action::SelectPlatform(Platform::Ibm))
            .unwrap();
        via_actions
            .apply(Action::SelectDevice(DeviceId::IbmqMontreal))
            .unwrap();
        let mut via_pin = CompilationFlow::new(star(5), 9);
        via_pin
            .pin_device(Device::get(DeviceId::IbmqMontreal))
            .unwrap();
        assert_eq!(via_actions.history(), via_pin.history());
        assert_eq!(via_actions.steps(), via_pin.steps());
        assert_eq!(via_actions.state(), via_pin.state());
        assert_eq!(via_actions.mask_signature(), via_pin.mask_signature());
        // The continuations stay identical too (same step seeds).
        for flow in [&mut via_actions, &mut via_pin] {
            flow.apply(Action::Synthesize).unwrap();
            flow.apply(Action::Layout(LayoutMethod::Sabre)).unwrap();
            flow.apply(Action::Route(RoutingMethod::Sabre)).unwrap();
        }
        assert_eq!(via_actions.circuit(), via_pin.circuit());
        assert_eq!(via_actions.layouts(), via_pin.layouts());
    }

    #[test]
    fn pin_device_reaches_dynamic_devices_the_action_set_cannot() {
        use qrc_device::{DeviceRegistry, DeviceSource, DeviceSpec, TopologySpec};
        let id = DeviceRegistry::register(
            DeviceSpec::synthetic(
                "flow_test_ring_16",
                Platform::Oqc,
                TopologySpec::Ring { qubits: 16 },
            ),
            DeviceSource::Runtime,
        )
        .unwrap();
        let mut flow = CompilationFlow::new(ghz(12), 3);
        // The action path is closed: no *built-in* OQC device fits 12
        // qubits, so the platform itself is masked…
        assert!(!flow.is_legal(Action::SelectPlatform(Platform::Oqc)));
        // …but an explicit pin to the 16-qubit dynamic ring works.
        flow.pin_device(Device::get(id)).unwrap();
        assert_eq!(flow.platform(), Some(Platform::Oqc));
        assert_eq!(flow.device().unwrap().num_qubits(), 16);
        flow.apply(Action::Synthesize).unwrap();
        assert!(flow.is_done(), "GHZ chain is ring-native once synthesized");
    }

    #[test]
    fn pin_device_rejects_oversized_circuits_and_non_start_states() {
        let mut flow = CompilationFlow::new(ghz(9), 0);
        let err = flow.pin_device(Device::get(DeviceId::OqcLucy)).unwrap_err();
        assert!(matches!(err, FlowError::IllegalAction { .. }));
        let mut flow = CompilationFlow::new(ghz(3), 0);
        flow.apply(Action::SelectPlatform(Platform::Ibm)).unwrap();
        let err = flow
            .pin_device(Device::get(DeviceId::IbmqMontreal))
            .unwrap_err();
        assert!(matches!(err, FlowError::IllegalAction { .. }));
    }

    #[test]
    fn ionq_flow_is_executable_after_synthesis() {
        // All-to-all device: synthesis alone suffices (the `*` in Fig. 2).
        let mut flow = CompilationFlow::new(ghz(5), 0);
        flow.apply(Action::SelectPlatform(Platform::Ionq)).unwrap();
        flow.apply(Action::SelectDevice(DeviceId::IonqHarmony))
            .unwrap();
        flow.apply(Action::Synthesize).unwrap();
        assert_eq!(flow.state(), FlowState::Done);
    }
}
