//! Layout passes: choose an initial logical→physical qubit placement.
//!
//! * [`TrivialLayout`] — logical qubit `i` on physical qubit `i`,
//! * [`DenseLayout`] — find the densest connected physical subgraph and
//!   place the most-communicating logical qubits on its best-connected
//!   nodes (Qiskit's `DenseLayout` heuristic),
//! * [`SabreLayout`] — bidirectional SABRE iteration (route forward, route
//!   backward, reuse the final permutation as the next initial layout).
//!
//! Layout passes output the circuit widened to the device and remapped,
//! with [`WireEffect::SetLayout`] recording where each logical qubit went.

use crate::pass::{Pass, PassContext, PassError, PassOutcome, WireEffect};
use crate::routing::{sabre_route, SabreSwap};
use qrc_circuit::{metrics, QuantumCircuit, Qubit};
use qrc_device::Device;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Applies a logical→physical assignment, widening the circuit.
fn apply_layout(
    circuit: &QuantumCircuit,
    layout: &[u32],
    device: &Device,
) -> Result<PassOutcome, PassError> {
    let map: Vec<Qubit> = layout.iter().map(|&p| Qubit(p)).collect();
    let widened = circuit.remapped(device.num_qubits(), &map)?;
    Ok(PassOutcome {
        circuit: widened,
        effect: WireEffect::SetLayout(layout.to_vec()),
    })
}

fn check_width(circuit: &QuantumCircuit, device: &Device) -> Result<(), PassError> {
    if circuit.num_qubits() > device.num_qubits() {
        return Err(PassError::CircuitTooWide {
            circuit: circuit.num_qubits(),
            device: device.num_qubits(),
        });
    }
    Ok(())
}

/// Qiskit-style `TrivialLayout`: the identity placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrivialLayout;

impl Pass for TrivialLayout {
    fn name(&self) -> &'static str {
        "TrivialLayout"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let device = ctx.require_device(self.name())?;
        check_width(circuit, device)?;
        let layout: Vec<u32> = (0..circuit.num_qubits()).collect();
        apply_layout(circuit, &layout, device)
    }
}

/// Qiskit-style `DenseLayout`: place the circuit on the densest connected
/// subgraph of the device, matching high-communication logical qubits with
/// high-degree physical qubits.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseLayout;

impl Pass for DenseLayout {
    fn name(&self) -> &'static str {
        "DenseLayout"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let device = ctx.require_device(self.name())?;
        check_width(circuit, device)?;
        let n = circuit.num_qubits() as usize;
        if n == 0 {
            return apply_layout(circuit, &[], device);
        }
        let coupling = device.coupling();

        // Greedy densest-subgraph search from every start node.
        let mut best_set: Vec<u32> = Vec::new();
        let mut best_score = -1i64;
        for start in 0..device.num_qubits() {
            let mut set = vec![start];
            let mut internal_edges = 0i64;
            while set.len() < n {
                // Frontier node with the most links into the current set.
                let mut cand: Option<(u32, i64)> = None;
                for &q in &set {
                    for &nb in coupling.neighbors(q) {
                        if set.contains(&nb) {
                            continue;
                        }
                        let links = coupling
                            .neighbors(nb)
                            .iter()
                            .filter(|x| set.contains(x))
                            .count() as i64;
                        match cand {
                            Some((_, best)) if best >= links => {}
                            _ => cand = Some((nb, links)),
                        }
                    }
                }
                let Some((nb, links)) = cand else {
                    break; // disconnected: cannot grow further
                };
                set.push(nb);
                internal_edges += links;
            }
            if set.len() == n && internal_edges > best_score {
                best_score = internal_edges;
                best_set = set;
            }
        }
        if best_set.len() < n {
            // Fall back to the first n qubits (device too fragmented).
            best_set = (0..circuit.num_qubits()).collect();
        }

        // Match logical qubits (by interaction degree, desc) to physical
        // qubits in the chosen set (by in-set degree, desc).
        let logical_deg = metrics::interaction_degrees(circuit);
        let mut logical: Vec<u32> = (0..circuit.num_qubits()).collect();
        logical.sort_by_key(|&l| std::cmp::Reverse(logical_deg[l as usize]));
        let mut physical = best_set.clone();
        physical.sort_by_key(|&p| {
            std::cmp::Reverse(
                coupling
                    .neighbors(p)
                    .iter()
                    .filter(|x| best_set.contains(x))
                    .count(),
            )
        });
        let mut layout = vec![0u32; n];
        for (l, p) in logical.into_iter().zip(physical) {
            layout[l as usize] = p;
        }
        apply_layout(circuit, &layout, device)
    }
}

/// SABRE layout (Li, Ding, Xie): start from a seeded random layout, then
/// alternate forward/backward routing passes, feeding each pass's final
/// permutation back as the next initial layout.
#[derive(Debug, Clone, Copy)]
pub struct SabreLayout {
    /// Number of forward/backward refinement rounds (Qiskit default: 3).
    pub iterations: usize,
}

impl Default for SabreLayout {
    fn default() -> Self {
        SabreLayout { iterations: 3 }
    }
}

impl Pass for SabreLayout {
    fn name(&self) -> &'static str {
        "SabreLayout"
    }

    fn apply(
        &self,
        circuit: &QuantumCircuit,
        ctx: &PassContext<'_>,
    ) -> Result<PassOutcome, PassError> {
        let device = ctx.require_device(self.name())?;
        check_width(circuit, device)?;
        let n = circuit.num_qubits();

        // Seeded random initial layout.
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xc0ffee);
        let mut physical: Vec<u32> = (0..device.num_qubits()).collect();
        physical.shuffle(&mut rng);
        let mut layout: Vec<u32> = physical[..n as usize].to_vec();

        // The unitary part drives the layout search; reversal needs
        // invertible ops, and measures do not constrain placement.
        let mut unitary = circuit.clone();
        unitary.retain(|op| op.gate.is_unitary() && op.gate != qrc_circuit::Gate::Barrier);
        let reversed = reverse_for_sabre(&unitary);

        for _ in 0..self.iterations.max(1) {
            for qc in [&unitary, &reversed] {
                let placed = qc.remapped(
                    device.num_qubits(),
                    &layout.iter().map(|&p| Qubit(p)).collect::<Vec<_>>(),
                )?;
                let (_, perm) = sabre_route(&placed, device, SabreSwap::default())?;
                // Logical l sat at layout[l]; after routing its content
                // ends at perm[layout[l]] — the next initial layout.
                layout = layout.iter().map(|&p| perm[p as usize]).collect();
            }
        }
        apply_layout(circuit, &layout, device)
    }
}

/// Reverses a unitary circuit structurally (gate order only — SABRE cares
/// about interaction patterns, not exact inverses).
fn reverse_for_sabre(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(circuit.num_qubits(), circuit.name().to_string());
    for op in circuit.iter().rev() {
        out.push(*op).expect("same width");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_device::DeviceId;

    fn sample_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(5);
        qc.h(0).cx(0, 1).cx(0, 2).cx(0, 3).cx(3, 4).measure_all();
        qc
    }

    fn all_layouts() -> Vec<Box<dyn Pass>> {
        vec![
            Box::new(TrivialLayout),
            Box::new(DenseLayout),
            Box::new(SabreLayout::default()),
        ]
    }

    #[test]
    fn layouts_widen_and_record_placement() {
        let dev = Device::get(DeviceId::IbmqMontreal);
        let qc = sample_circuit();
        for pass in all_layouts() {
            let out = pass.apply(&qc, &PassContext::for_device(&dev)).unwrap();
            assert_eq!(out.circuit.num_qubits(), 27, "{}", pass.name());
            let WireEffect::SetLayout(layout) = &out.effect else {
                panic!("{} must set a layout", pass.name());
            };
            assert_eq!(layout.len(), 5);
            // Placement must be injective and in range.
            let mut seen = std::collections::BTreeSet::new();
            for &p in layout {
                assert!(p < 27);
                assert!(seen.insert(p), "{}: duplicate physical qubit", pass.name());
            }
            // Gate structure preserved.
            assert_eq!(out.circuit.len(), qc.len());
        }
    }

    #[test]
    fn trivial_layout_is_identity() {
        let dev = Device::get(DeviceId::OqcLucy);
        let qc = sample_circuit();
        let out = TrivialLayout
            .apply(&qc, &PassContext::for_device(&dev))
            .unwrap();
        assert_eq!(out.effect, WireEffect::SetLayout(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn dense_layout_picks_connected_region() {
        let dev = Device::get(DeviceId::IbmqMontreal);
        let qc = sample_circuit();
        let out = DenseLayout
            .apply(&qc, &PassContext::for_device(&dev))
            .unwrap();
        let WireEffect::SetLayout(layout) = &out.effect else {
            panic!()
        };
        // The chosen physical nodes must form a connected subgraph.
        let coupling = dev.coupling();
        let set: Vec<u32> = layout.clone();
        let mut reach = vec![set[0]];
        let mut frontier = vec![set[0]];
        while let Some(q) = frontier.pop() {
            for &nb in coupling.neighbors(q) {
                if set.contains(&nb) && !reach.contains(&nb) {
                    reach.push(nb);
                    frontier.push(nb);
                }
            }
        }
        assert_eq!(reach.len(), set.len(), "dense subgraph disconnected");
        // The hub logical qubit (q0, degree 3) should sit on a physical
        // qubit with degree ≥ 2 inside the set.
        let hub = layout[0];
        let hub_deg = coupling
            .neighbors(hub)
            .iter()
            .filter(|x| set.contains(x))
            .count();
        assert!(hub_deg >= 2, "hub placed on degree-{hub_deg} node");
    }

    #[test]
    fn sabre_layout_deterministic_per_seed() {
        let dev = Device::get(DeviceId::IbmqMontreal);
        let qc = sample_circuit();
        let a = SabreLayout::default()
            .apply(&qc, &PassContext::for_device(&dev).with_seed(5))
            .unwrap();
        let b = SabreLayout::default()
            .apply(&qc, &PassContext::for_device(&dev).with_seed(5))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_wide_is_rejected() {
        let dev = Device::get(DeviceId::OqcLucy);
        let qc = QuantumCircuit::new(9);
        for pass in all_layouts() {
            assert!(matches!(
                pass.apply(&qc, &PassContext::for_device(&dev)),
                Err(PassError::CircuitTooWide { .. })
            ));
        }
    }

    #[test]
    fn device_required() {
        let qc = sample_circuit();
        for pass in all_layouts() {
            assert!(matches!(
                pass.apply(&qc, &PassContext::device_free()),
                Err(PassError::DeviceRequired { .. })
            ));
        }
    }

    #[test]
    fn empty_circuit_layouts_cleanly() {
        let dev = Device::get(DeviceId::OqcLucy);
        let qc = QuantumCircuit::new(3);
        for pass in all_layouts() {
            let out = pass.apply(&qc, &PassContext::for_device(&dev)).unwrap();
            assert_eq!(out.circuit.num_qubits(), 8, "{}", pass.name());
            assert!(out.circuit.is_empty());
        }
    }
}
