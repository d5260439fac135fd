//! Router identity gate: every router must keep producing exactly the
//! bytes it produced before its search was made incremental.
//!
//! Served payloads are the contract of the compilation service, and every
//! routed circuit ends up in one. So each router is pinned by one FNV-1a
//! digest over a fixed grid of calls: four devices (`ibmq_washington`,
//! `ibmq_montreal`, `rigetti_aspen_m2`, `oqc_lucy`) × every `paper_suite`
//! circuit of 3, 6 and 10 qubits that fits × seeds 0 and 1, each routed
//! after `BasisTranslator` + `TrivialLayout` and again after
//! `SabreLayout`. A call contributes its output QASM and final
//! permutation, or its error's `Display` text when it fails, so known
//! failures stay pinned as well. The digests were recorded before any
//! router was changed; any changed byte, swap choice, tie-break or RNG
//! draw changes them.
//!
//! A proptest also compares `StochasticSwap` with the full-rescan search
//! it replaced, kept below as the oracle ([`oracle::stochastic_swap`]).

use proptest::prelude::*;
use qrc_benchgen::paper_suite;
use qrc_circuit::qasm::to_qasm;
use qrc_circuit::strategies::small_gate_circuit;
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_passes::layout::{SabreLayout, TrivialLayout};
use qrc_passes::routing::{BasicSwap, SabreSwap, StochasticSwap, TketRouting};
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext, PassError, PassOutcome, WireEffect};
use std::sync::OnceLock;

const DEVICES: [DeviceId; 4] = [
    DeviceId::IbmqWashington,
    DeviceId::IbmqMontreal,
    DeviceId::RigettiAspenM2,
    DeviceId::OqcLucy,
];
const WIDTHS: [u32; 3] = [3, 6, 10];
const SEEDS: [u64; 2] = [0, 1];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One routing input of the grid: a laid-out circuit (or the error the
/// translation or layout raised) with its device and seed.
struct Case {
    device: usize,
    seed: u64,
    laid: Result<QuantumCircuit, String>,
}

fn devices() -> &'static [Device] {
    static DEVS: OnceLock<Vec<Device>> = OnceLock::new();
    DEVS.get_or_init(|| DEVICES.iter().map(|&id| Device::get(id)).collect())
}

/// The grid's routing inputs in a fixed order, built once and shared by
/// the four router tests.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let suite: Vec<QuantumCircuit> = paper_suite(WIDTHS[0], WIDTHS[2])
            .into_iter()
            .filter(|qc| WIDTHS.contains(&qc.num_qubits()))
            .collect();
        let layouts: [&dyn Pass; 2] = [&TrivialLayout, &SabreLayout::default()];
        let mut cases = Vec::new();
        for (device, dev) in devices().iter().enumerate() {
            for qc in suite
                .iter()
                .filter(|qc| qc.num_qubits() <= dev.num_qubits())
            {
                for seed in SEEDS {
                    let ctx = PassContext::for_device(dev).with_seed(seed);
                    let translated = BasisTranslator.apply(qc, &ctx);
                    for layout in layouts {
                        let laid = match &translated {
                            Ok(t) => layout
                                .apply(&t.circuit, &ctx)
                                .map(|o| o.circuit)
                                .map_err(|e| format!("{}: {e}", layout.name())),
                            Err(e) => Err(format!("BasisTranslator: {e}")),
                        };
                        cases.push(Case { device, seed, laid });
                    }
                }
            }
        }
        cases
    })
}

/// Hashes one routing result: QASM and permutation, or the error text.
fn hash_outcome(h: &mut Fnv, outcome: &Result<PassOutcome, PassError>) -> bool {
    match outcome {
        Ok(out) => {
            h.write(to_qasm(&out.circuit).as_bytes());
            let WireEffect::Permute(perm) = &out.effect else {
                panic!("routers must permute");
            };
            for p in perm {
                h.write(&p.to_le_bytes());
            }
            true
        }
        Err(e) => {
            h.write(b"error: ");
            h.write(e.to_string().as_bytes());
            false
        }
    }
}

/// Routes every case of the grid and returns `(digest, calls, failures)`.
fn grid_digest(router: &dyn Pass) -> (String, usize, usize) {
    let mut h = Fnv::new();
    let (mut calls, mut failures) = (0, 0);
    for case in cases() {
        match &case.laid {
            Ok(laid) => {
                let dev = &devices()[case.device];
                let ctx = PassContext::for_device(dev).with_seed(case.seed);
                calls += 1;
                if !hash_outcome(&mut h, &router.apply(laid, &ctx)) {
                    failures += 1;
                }
            }
            Err(e) => h.write(e.as_bytes()),
        }
    }
    (format!("fnv1a64:{:016x}", h.0), calls, failures)
}

fn assert_grid(router: &dyn Pass, digest: &str, calls: usize, failures: usize) {
    let got = grid_digest(router);
    assert_eq!(
        got,
        (digest.to_string(), calls, failures),
        "{} output changed (digest, calls, failures)",
        router.name()
    );
}

#[test]
fn basic_swap_output_is_unchanged() {
    assert_grid(&BasicSwap, "fnv1a64:41e4afc2178eaf71", 968, 0);
}

#[test]
fn stochastic_swap_output_is_unchanged() {
    assert_grid(
        &StochasticSwap::default(),
        "fnv1a64:3db5009a910315ca",
        968,
        0,
    );
}

#[test]
fn sabre_swap_output_is_unchanged() {
    assert_grid(&SabreSwap::default(), "fnv1a64:6a9685d27eb283b4", 968, 0);
}

#[test]
fn tket_routing_output_is_unchanged() {
    assert_grid(&TketRouting::default(), "fnv1a64:aacd4dd69fe6ce87", 968, 0);
}

/// A known failure, pinned so it stays visible: on `ibmq_montreal`, no
/// trial of `StochasticSwap` reaches an executable front for
/// `qftentangled_10` at seed 5 after `TrivialLayout`. Any fix changes
/// the router's RNG consumption and so the bytes it serves.
#[test]
fn stochastic_swap_known_montreal_failure_is_unchanged() {
    let dev = Device::get(DeviceId::IbmqMontreal);
    let ctx = PassContext::for_device(&dev).with_seed(5);
    let qc = qrc_benchgen::BenchmarkFamily::QftEntangled.generate(10);
    let translated = BasisTranslator.apply(&qc, &ctx).unwrap().circuit;
    let laid = TrivialLayout.apply(&translated, &ctx).unwrap().circuit;
    let err = StochasticSwap::default().apply(&laid, &ctx).unwrap_err();
    assert_eq!(
        err.to_string(),
        "pass `StochasticSwap` failed: no trial reached an executable front"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random circuits, `StochasticSwap` returns exactly what the
    /// full-rescan search returns: same swaps, same permutation, same
    /// errors.
    #[test]
    fn stochastic_swap_matches_the_full_rescan_search(
        qc in small_gate_circuit(2..=8, 40),
        seed in 0u64..1_000_000,
        on_montreal in 0u8..2,
    ) {
        let dev = Device::get(if on_montreal == 1 {
            DeviceId::IbmqMontreal
        } else {
            DeviceId::OqcLucy
        });
        let pass = StochasticSwap::default();
        let ctx = PassContext::for_device(&dev).with_seed(seed);
        let got = pass.apply(&qc, &ctx).map(|o| match o.effect {
            WireEffect::Permute(perm) => (o.circuit, perm),
            other => panic!("routers must permute, got {other:?}"),
        });
        let want = oracle::stochastic_swap(&qc, &dev, seed, pass.trials);
        match (&got, &want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
            (Err(g), Err(w)) => prop_assert_eq!(g.to_string(), w.to_string()),
            _ => prop_assert!(false, "got {:?}, oracle {:?}", got, want),
        }
    }
}

/// `StochasticSwap` as it stood before incremental scoring: every swap
/// step clones the tracker per coupling edge and re-sums every blocked
/// pair's distance, and the ready set is rescanned after every op. Only
/// for circuits of one- and two-qubit gates (the router's lowering of
/// wider gates is not reproduced).
mod oracle {
    use qrc_circuit::{Gate, Operation, QuantumCircuit, Qubit};
    use qrc_device::Device;
    use qrc_passes::PassError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, VecDeque};

    #[derive(Clone)]
    struct Tracker {
        virt2phys: Vec<u32>,
        phys2virt: Vec<u32>,
    }

    impl Tracker {
        fn pos(&self, v: u32) -> u32 {
            self.virt2phys[v as usize]
        }

        fn swap_phys(&mut self, p1: u32, p2: u32) {
            let v1 = self.phys2virt[p1 as usize];
            let v2 = self.phys2virt[p2 as usize];
            self.phys2virt[p1 as usize] = v2;
            self.phys2virt[p2 as usize] = v1;
            self.virt2phys[v1 as usize] = p2;
            self.virt2phys[v2 as usize] = p1;
        }
    }

    fn ready_ops(qc: &QuantumCircuit, queues: &[VecDeque<usize>]) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        for queue in queues {
            if let Some(&i) = queue.front() {
                if qc.ops()[i]
                    .qubits
                    .iter()
                    .all(|q| queues[q.index()].front() == Some(&i))
                {
                    seen.insert(i);
                }
            }
        }
        seen.into_iter().collect()
    }

    pub fn stochastic_swap(
        circuit: &QuantumCircuit,
        device: &Device,
        seed: u64,
        trials: usize,
    ) -> Result<(QuantumCircuit, Vec<u32>), PassError> {
        assert!(
            circuit.iter().all(|op| op.gate.num_qubits() <= 2),
            "the oracle does not lower gates of three or more qubits"
        );
        let n = device.num_qubits();
        if circuit.num_qubits() > n {
            return Err(PassError::CircuitTooWide {
                circuit: circuit.num_qubits(),
                device: n,
            });
        }
        let map: Vec<Qubit> = (0..circuit.num_qubits()).map(Qubit).collect();
        let prepared = circuit.remapped(n, &map)?;
        let coupling = device.coupling();
        let mut tracker = Tracker {
            virt2phys: (0..n).collect(),
            phys2virt: (0..n).collect(),
        };
        let mut out = QuantumCircuit::with_name(n, prepared.name().to_string());
        let mut queues = vec![VecDeque::new(); n as usize];
        for (i, op) in prepared.iter().enumerate() {
            for q in op.qubits.iter() {
                queues[q.index()].push_back(i);
            }
        }
        let mut ready = ready_ops(&prepared, &queues);
        let mut remaining = prepared.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = trials.max(1);
        let executable = |t: &Tracker, op: &Operation| {
            !op.is_two_qubit()
                || coupling.are_connected(t.pos(op.qubits[0].0), t.pos(op.qubits[1].0))
        };
        let mut stall_guard = 0usize;
        let stall_limit = 10_000 + 100 * prepared.len();
        while remaining > 0 {
            let now: Vec<usize> = ready
                .iter()
                .copied()
                .filter(|&i| executable(&tracker, &prepared.ops()[i]))
                .collect();
            if !now.is_empty() {
                for i in now {
                    let op = &prepared.ops()[i];
                    let qs: Vec<Qubit> =
                        op.qubits.iter().map(|q| Qubit(tracker.pos(q.0))).collect();
                    out.push(Operation::new(op.gate, &qs))?;
                    for q in op.qubits.iter() {
                        queues[q.index()].pop_front();
                    }
                    remaining -= 1;
                    ready = ready_ops(&prepared, &queues);
                }
                continue;
            }
            let pairs: Vec<(u32, u32)> = ready
                .iter()
                .map(|&i| &prepared.ops()[i])
                .filter(|op| op.is_two_qubit())
                .map(|op| (op.qubits[0].0, op.qubits[1].0))
                .collect();
            if pairs.is_empty() {
                return Err(PassError::SynthesisFailed {
                    pass: "StochasticSwap",
                    reason: "blocked without blocked 2q op".into(),
                });
            }
            let dist_sum = |t: &Tracker| -> u64 {
                pairs
                    .iter()
                    .map(|&(a, b)| coupling.distance(t.pos(a), t.pos(b)) as u64)
                    .sum()
            };
            let edges: Vec<(u32, u32)> = coupling.edges().collect();
            let mut best: Option<Vec<(u32, u32)>> = None;
            for _ in 0..trials {
                let mut t = tracker.clone();
                let mut seq = Vec::new();
                let cap = 4 * n as usize + 16;
                while dist_sum(&t) > pairs.len() as u64 && seq.len() < cap {
                    let current = dist_sum(&t);
                    let improving: Vec<&(u32, u32)> = edges
                        .iter()
                        .filter(|&&(p1, p2)| {
                            let mut probe = t.clone();
                            probe.swap_phys(p1, p2);
                            dist_sum(&probe) < current
                        })
                        .collect();
                    let &(p1, p2) = if improving.is_empty() {
                        &edges[rng.gen_range(0..edges.len())]
                    } else {
                        improving[rng.gen_range(0..improving.len())]
                    };
                    t.swap_phys(p1, p2);
                    seq.push((p1, p2));
                }
                if dist_sum(&t) == pairs.len() as u64
                    && best.as_ref().is_none_or(|b| seq.len() < b.len())
                {
                    best = Some(seq);
                }
            }
            let seq = best.ok_or(PassError::SynthesisFailed {
                pass: "StochasticSwap",
                reason: "no trial reached an executable front".into(),
            })?;
            for (p1, p2) in seq {
                out.push(Operation::new(Gate::Swap, &[Qubit(p1), Qubit(p2)]))?;
                tracker.swap_phys(p1, p2);
            }
            stall_guard += 1;
            if stall_guard > stall_limit {
                return Err(PassError::SynthesisFailed {
                    pass: "routing",
                    reason: "router failed to make progress".into(),
                });
            }
        }
        Ok((out, tracker.virt2phys))
    }
}
