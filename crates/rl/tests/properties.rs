//! Property-based tests for the RL stack: distribution invariants of the
//! masked policy and gradient-correctness of the network.

use proptest::prelude::*;
use qrc_rl::{masked_softmax, sample_categorical, Mlp, PpoAgent, PpoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn masked_softmax_is_a_distribution(
        logits in proptest::collection::vec(-20.0..20.0f64, 2..12),
        mask_bits in proptest::collection::vec(any::<bool>(), 2..12),
    ) {
        let n = logits.len().min(mask_bits.len());
        let logits = &logits[..n];
        let mut mask = mask_bits[..n].to_vec();
        if !mask.iter().any(|&m| m) {
            mask[0] = true;
        }
        let probs = masked_softmax(logits, &mask);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (p, &m) in probs.iter().zip(mask.iter()) {
            if m {
                prop_assert!(*p >= 0.0);
            } else {
                prop_assert_eq!(*p, 0.0);
            }
        }
    }

    #[test]
    fn masked_softmax_is_shift_invariant(
        logits in proptest::collection::vec(-10.0..10.0f64, 3..8),
        shift in -50.0..50.0f64,
    ) {
        let mask = vec![true; logits.len()];
        let a = masked_softmax(&logits, &mask);
        let shifted: Vec<f64> = logits.iter().map(|l| l + shift).collect();
        let b = masked_softmax(&shifted, &mask);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_respects_support(
        seed in 0u64..1000,
        k in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Distribution with a zeroed entry.
        let mut probs = vec![1.0 / (k - 1) as f64; k];
        probs[k / 2] = 0.0;
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        for _ in 0..50 {
            let i = sample_categorical(&probs, &mut rng);
            prop_assert_ne!(i, k / 2);
            prop_assert!(i < k);
        }
    }

    #[test]
    fn mlp_gradients_match_finite_differences(
        seed in 0u64..100,
        rows in 1usize..5,
        inputs in proptest::collection::vec(-1.0..1.0f64, 8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(2, &[6], 2, &mut rng);
        let xs = &inputs[..2 * rows];
        // Loss = Σ over rows of y0² + 0.5·y1, so dL/dy = (2·y0, 0.5).
        let loss = |net: &Mlp| -> f64 {
            xs.chunks(2)
                .map(|x| {
                    let y = net.forward(x);
                    y[0] * y[0] + 0.5 * y[1]
                })
                .sum()
        };
        let acts = net.forward_minibatch(xs, rows);
        let dout: Vec<f64> = acts.output().chunks(2).flat_map(|y| [2.0 * y[0], 0.5]).collect();
        let grads = net.backward_minibatch(&acts, &dout);
        // Central differences over every parameter, each nudged
        // through the network's JSON form.
        let eps = 1e-6;
        let mut numeric_sq = 0.0;
        for (layer, key, len) in [(0, "w", 12), (0, "b", 6), (1, "w", 12), (1, "b", 2)] {
            for k in 0..len {
                let up = loss(&nudged(&net, layer, key, k, eps));
                let down = loss(&nudged(&net, layer, key, k, -eps));
                let g = (up - down) / (2.0 * eps);
                numeric_sq += g * g;
            }
        }
        let norm = grads.norm();
        prop_assert!(
            (numeric_sq.sqrt() - norm).abs() < 1e-6 * (1.0 + norm),
            "numeric {} vs analytic {}",
            numeric_sq.sqrt(),
            norm
        );
    }

    #[test]
    fn forward_minibatch_rows_match_forward(
        seed in 0u64..100,
        rows in 0usize..20,
        inputs in proptest::collection::vec(-2.0..2.0f64, 60),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(3, &[17], 5, &mut rng);
        let xs = &inputs[..3 * rows];
        let acts = net.forward_minibatch(xs, rows);
        let single: Vec<f64> = xs.chunks(3).flat_map(|x| net.forward(x)).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(acts.output()), bits(&single));
    }

    #[test]
    fn agent_probabilities_always_valid(
        seed in 0u64..50,
        obs in proptest::collection::vec(0.0..1.0f64, 4),
    ) {
        let agent = PpoAgent::new(4, 5, PpoConfig::default(), seed);
        let mask = vec![true, false, true, true, false];
        let probs = agent.action_probs(&obs, &mask);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert_eq!(probs[1], 0.0);
        prop_assert_eq!(probs[4], 0.0);
        let greedy = agent.act_greedy(&obs, &mask);
        prop_assert!(mask[greedy]);
    }
}

/// `net` with parameter `k` of `key` (`"w"`, row-major, or `"b"`) in
/// layer `layer` moved by `delta`, rebuilt from its JSON form.
fn nudged(net: &Mlp, layer: usize, key: &str, k: usize, delta: f64) -> Mlp {
    let value = net.to_value();
    let layers = value
        .as_array()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let floats = |name: &str| -> Vec<f64> {
                let values = l.get(name).unwrap().as_array().unwrap();
                values.iter().map(|v| v.as_f64().unwrap()).collect()
            };
            let (mut w, mut b) = (floats("w"), floats("b"));
            if i == layer {
                let params = if key == "w" { &mut w } else { &mut b };
                params[k] += delta;
            }
            let array = |v: Vec<f64>| Value::Array(v.into_iter().map(Value::from).collect());
            Value::object(vec![
                ("inputs", l.get("inputs").unwrap().clone()),
                ("outputs", l.get("outputs").unwrap().clone()),
                ("w", array(w)),
                ("b", array(b)),
            ])
        })
        .collect();
    Mlp::from_value(&Value::Array(layers)).unwrap()
}
