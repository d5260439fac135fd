//! Basis translation allocates a small fixed number of times per circuit,
//! whatever the circuit's gate count: its one output list (which grows a
//! few times from the input length) and the circuit name, and nothing per
//! op. A non-native gate's Euler synthesis runs on the stack.
//!
//! The workload is the miss-ion request set: every `paper_suite(2, 11)`
//! circuit after a QASM round trip (as a served request arrives),
//! translated to `ionq_harmony`. A counting global allocator counts each
//! `alloc` and `realloc` made on the test's own thread, so this test has
//! a binary of its own.

use qrc_benchgen::paper_suite;
use qrc_circuit::qasm::{from_qasm, to_qasm};
use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId};
use qrc_passes::synthesis::BasisTranslator;
use qrc_passes::{Pass, PassContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one translation may make.
const MAX_ALLOCATIONS: u64 = 6;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn translating_a_miss_ion_circuit_makes_a_fixed_number_of_allocations() {
    let circuits: Vec<QuantumCircuit> = paper_suite(2, 11)
        .iter()
        .map(|qc| from_qasm(&to_qasm(qc)).expect("round trip"))
        .collect();
    assert_eq!(circuits.len(), 218);
    let device = Device::get(DeviceId::IonqHarmony);
    let ctx = PassContext::for_device(&device);
    let mut counts = Vec::with_capacity(circuits.len());
    for qc in &circuits {
        let before = ALLOCATIONS.with(Cell::get);
        let out = BasisTranslator.apply(qc, &ctx).expect("translates");
        counts.push(ALLOCATIONS.with(Cell::get) - before);
        drop(out);
    }
    let total: u64 = counts.iter().sum();
    let (worst, at) = counts
        .iter()
        .zip(&circuits)
        .max_by_key(|(n, _)| **n)
        .map(|(n, qc)| (*n, qc.len()))
        .unwrap();
    let largest = circuits.iter().map(QuantumCircuit::len).max().unwrap();
    println!(
        "{total} allocations over {} circuits (mean {:.2}, worst {worst} at {at} ops; largest circuit {largest} ops)",
        circuits.len(),
        total as f64 / circuits.len() as f64
    );
    assert!(
        worst <= MAX_ALLOCATIONS,
        "a translation of {at} ops made {worst} allocations (at most {MAX_ALLOCATIONS})"
    );
}
