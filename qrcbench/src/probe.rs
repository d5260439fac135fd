//! The host-speed probe: a fixed piece of reference work, written here
//! and sharing no code with the program under test, timed between
//! service calls to tell a slow host from a slow program.
//!
//! A shared 2-vCPU host moves between speed regimes that last from
//! seconds to minutes: the same pass of the same binary took 2.1 s in
//! one and 4.0 s in another, and allocation-heavy code slows far more
//! than arithmetic. The probe does what the compiler does most — builds
//! small vectors, strings and maps, formats and parses numbers — so its
//! time tracks the regime the service calls around it ran in.

use std::collections::HashMap;
use std::time::Instant;

/// Rounds of reference work in one probe: 4–8 ms on a 2-vCPU Xeon.
const ROUNDS: u64 = 8_000;

/// Runs the reference work once and returns its duration in seconds.
/// The work is the same every time; its result is checked so the
/// optimiser cannot drop it.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    let checksum = churn();
    let seconds = start.elapsed().as_secs_f64();
    assert_ne!(checksum, 0, "probe work was not done");
    seconds
}

/// Builds, formats, parses and drops many small vectors and strings,
/// keeping half of them in a map.
fn churn() -> u64 {
    let mut state = 0x5eed_u64;
    let mut map: HashMap<u64, (Vec<u64>, String)> = HashMap::new();
    for round in 0..ROUNDS {
        state = splitmix64(state);
        let items: Vec<u64> = (0..1 + state % 48).map(|k| k ^ state).collect();
        let text = format!(
            "u3({:.6}) q[{}];",
            state as f64 / u64::MAX as f64,
            state % 127
        );
        let angle: f64 = text[3..text.find(')').unwrap_or(3)].parse().unwrap_or(0.0);
        map.insert(state ^ angle.to_bits(), (items, text));
        if round % 2 == 1 {
            map.remove(&(state ^ angle.to_bits()));
        }
    }
    map.values()
        .map(|(items, text)| items.iter().sum::<u64>() ^ text.len() as u64)
        .fold(1, u64::wrapping_add)
}

/// SplitMix64's step, here rather than borrowed from the program so
/// that no change to the program can change the probe.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
