//! A minimal dense neural network with manual backpropagation and Adam.
//!
//! Kept deliberately small: `f64` weights, tanh hidden activations, linear
//! output. This is all PPO needs for the observation sizes in this
//! workspace (a handful of circuit features), and it avoids any external
//! ML dependency.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One dense layer: `y = W·x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Linear {
    /// Row-major `out × in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Linear {
    fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Self {
        // Orthogonal-ish init: scaled uniform (He-style bound).
        let bound = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// The dense-layer kernel: `xs` holds `batch` row-major input rows
    /// of `self.inputs` each; `out` is overwritten with `batch`
    /// row-major output rows of `self.outputs` each, one matrix-matrix
    /// product. Each output element is one dot product accumulated in
    /// input order (`acc = b[o]; acc += w·x`), so a row's outputs do not
    /// depend on the other rows of the batch. Each weight row is
    /// streamed once across the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `xs` does not hold exactly `batch` rows.
    fn forward_batch(&self, xs: &[f64], batch: usize, out: &mut Vec<f64>) {
        assert_eq!(xs.len(), batch * self.inputs, "input length != input_dim");
        out.clear();
        out.resize(batch * self.outputs, 0.0);
        for o in 0..self.outputs {
            let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
            for r in 0..batch {
                let x = &xs[r * self.inputs..(r + 1) * self.inputs];
                let mut acc = self.b[o];
                for (wi, xi) in row.iter().zip(x.iter()) {
                    acc += wi * xi;
                }
                out[r * self.outputs + o] = acc;
            }
        }
    }
}

/// A multi-layer perceptron with tanh hidden activations and linear
/// output.
///
/// # Examples
///
/// ```
/// use qrc_rl::Mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let net = Mlp::new(3, &[16], 2, &mut rng);
/// let y = net.forward(&[0.1, -0.2, 0.5]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached activations of one forward pass, needed for backprop.
#[derive(Debug, Clone)]
pub struct Activations {
    /// `post[i]` = activated output of layer `i` (`post.last()` is linear).
    post: Vec<Vec<f64>>,
    input: Vec<f64>,
}

impl Activations {
    /// The network output of this pass.
    pub fn output(&self) -> &[f64] {
        self.post.last().expect("at least one layer")
    }
}

/// Flat gradient buffer matching an [`Mlp`]'s parameter layout.
#[derive(Debug, Clone)]
pub struct Gradients {
    w: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Global L2 norm of all gradient entries.
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for layer in self.w.iter().chain(self.b.iter()) {
            for g in layer {
                acc += g * g;
            }
        }
        acc.sqrt()
    }

    /// Scales every gradient in place.
    pub fn scale(&mut self, factor: f64) {
        for layer in self.w.iter_mut().chain(self.b.iter_mut()) {
            for g in layer {
                *g *= factor;
            }
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given hidden layer widths.
    pub fn new(inputs: usize, hidden: &[usize], outputs: usize, rng: &mut impl Rng) -> Self {
        let mut dims = vec![inputs];
        dims.extend_from_slice(hidden);
        dims.push(outputs);
        let layers = dims
            .windows(2)
            .map(|d| Linear::new(d[0], d[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Input dimension of the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output dimension of the last layer.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Plain forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_rows(x, 1)
    }

    /// Batched forward pass: stacks the input vectors into one matrix
    /// and computes each layer as a single matrix-matrix product.
    ///
    /// Output row `i` is **bit-identical** to [`Mlp::forward`] on
    /// `xs[i]`: both run the same kernel, whose output rows do not
    /// depend on each other. The batched layout only changes memory
    /// traffic (each weight row streams once per batch), which is where
    /// the miss-path speedup in serving comes from.
    ///
    /// # Panics
    ///
    /// Panics if any input row's length differs from the input
    /// dimension.
    pub fn forward_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let inputs = self.input_dim();
        let mut flat: Vec<f64> = Vec::with_capacity(xs.len() * inputs);
        for x in xs {
            assert_eq!(x.len(), inputs, "input row length != input_dim");
            flat.extend_from_slice(x);
        }
        let out = self.forward_rows(&flat, xs.len());
        out.chunks(self.output_dim()).map(<[f64]>::to_vec).collect()
    }

    /// Runs every layer over `batch` row-major input rows and returns
    /// the row-major output rows.
    fn forward_rows(&self, xs: &[f64], batch: usize) -> Vec<f64> {
        let mut cur: Vec<f64> = Vec::new();
        let mut next: Vec<f64> = Vec::new();
        for i in 0..self.layers.len() {
            let input = if i == 0 { xs } else { &cur };
            self.layer(i, input, batch, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Layer `i` over `batch` rows of `xs`: the dense kernel, then tanh
    /// on every hidden layer.
    fn layer(&self, i: usize, xs: &[f64], batch: usize, out: &mut Vec<f64>) {
        self.layers[i].forward_batch(xs, batch, out);
        if i + 1 < self.layers.len() {
            for v in out.iter_mut() {
                *v = v.tanh();
            }
        }
    }

    /// Forward pass retaining every layer's output for backprop.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn forward_cached(&self, x: &[f64]) -> Activations {
        let mut post: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        for i in 0..self.layers.len() {
            let mut out = Vec::new();
            self.layer(i, post.last().map_or(x, Vec::as_slice), 1, &mut out);
            post.push(out);
        }
        Activations {
            post,
            input: x.to_vec(),
        }
    }

    /// Serializes the network as an explicit JSON value (see
    /// [`Mlp::from_value`]). Weights survive a write→parse cycle
    /// bit-exactly.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Array(
            self.layers
                .iter()
                .map(|l| {
                    Value::object(vec![
                        ("inputs", Value::from(l.inputs)),
                        ("outputs", Value::from(l.outputs)),
                        ("w", float_array(&l.w)),
                        ("b", float_array(&l.b)),
                    ])
                })
                .collect(),
        )
    }

    /// Reconstructs a network from [`Mlp::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch
    /// (missing key, wrong type, or weight count inconsistent with the
    /// declared layer shape).
    pub fn from_value(value: &serde_json::Value) -> Result<Mlp, String> {
        let layers = value
            .as_array()
            .ok_or("mlp: expected array of layers")?
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let field = |key: &str| {
                    layer
                        .get(key)
                        .ok_or_else(|| format!("mlp layer {i}: missing `{key}`"))
                };
                let inputs = field("inputs")?
                    .as_u64()
                    .ok_or_else(|| format!("mlp layer {i}: `inputs` not an integer"))?
                    as usize;
                let outputs = field("outputs")?
                    .as_u64()
                    .ok_or_else(|| format!("mlp layer {i}: `outputs` not an integer"))?
                    as usize;
                let w = float_vec(field("w")?)
                    .ok_or_else(|| format!("mlp layer {i}: `w` not a float array"))?;
                let b = float_vec(field("b")?)
                    .ok_or_else(|| format!("mlp layer {i}: `b` not a float array"))?;
                if w.len() != inputs * outputs || b.len() != outputs {
                    return Err(format!(
                        "mlp layer {i}: shape {inputs}×{outputs} inconsistent with \
                         {} weights / {} biases",
                        w.len(),
                        b.len()
                    ));
                }
                Ok(Linear {
                    w,
                    b,
                    inputs,
                    outputs,
                })
            })
            .collect::<Result<Vec<Linear>, String>>()?;
        if layers.is_empty() {
            return Err("mlp: no layers".into());
        }
        for (a, b) in layers.iter().zip(layers.iter().skip(1)) {
            if a.outputs != b.inputs {
                return Err(format!(
                    "mlp: layer boundary mismatch ({} outputs feeding {} inputs)",
                    a.outputs, b.inputs
                ));
            }
        }
        Ok(Mlp { layers })
    }

    /// Accumulates gradients for one sample given `dL/d(output)`.
    #[allow(clippy::needless_range_loop)] // Backprop indexes weight/delta pairs.
    pub fn backward(&self, acts: &Activations, dout: &[f64], grads: &mut Gradients) {
        let n_layers = self.layers.len();
        let mut delta = dout.to_vec();
        for li in (0..n_layers).rev() {
            let layer = &self.layers[li];
            // Hidden layers have tanh: δ ← δ ⊙ (1 − tanh²(pre)), and
            // their cached output is tanh(pre).
            if li + 1 < n_layers {
                for (d, &t) in delta.iter_mut().zip(acts.post[li].iter()) {
                    *d *= 1.0 - t * t;
                }
            }
            let input: &[f64] = if li == 0 {
                &acts.input
            } else {
                &acts.post[li - 1]
            };
            for o in 0..layer.outputs {
                grads.b[li][o] += delta[o];
                let row = &mut grads.w[li][o * layer.inputs..(o + 1) * layer.inputs];
                for (gi, &xi) in row.iter_mut().zip(input.iter()) {
                    *gi += delta[o] * xi;
                }
            }
            if li > 0 {
                let mut next = vec![0.0; layer.inputs];
                for o in 0..layer.outputs {
                    let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
                    for (ni, &wi) in next.iter_mut().zip(row.iter()) {
                        *ni += delta[o] * wi;
                    }
                }
                delta = next;
            }
        }
    }
}

/// Adam optimizer state for one [`Mlp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    m_w: Vec<Vec<f64>>,
    v_w: Vec<Vec<f64>>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
}

impl Adam {
    /// Creates Adam state for `net` with the standard β parameters.
    pub fn new(net: &Mlp, lr: f64) -> Self {
        Adam {
            m_w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            v_w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            m_b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            v_b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Applies one Adam update of `grads` to `net`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for li in 0..net.layers.len() {
            update_slice(
                &mut net.layers[li].w,
                &grads.w[li],
                &mut self.m_w[li],
                &mut self.v_w[li],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
            update_slice(
                &mut net.layers[li].b,
                &grads.b[li],
                &mut self.m_b[li],
                &mut self.v_b[li],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
        }
    }
}

/// Encodes a float slice as a JSON array.
pub(crate) fn float_array(values: &[f64]) -> serde_json::Value {
    serde_json::Value::Array(values.iter().map(|&v| serde_json::Value::from(v)).collect())
}

/// Decodes a JSON array of numbers (`None` on any non-number element).
pub(crate) fn float_vec(value: &serde_json::Value) -> Option<Vec<f64>> {
    value.as_array()?.iter().map(|v| v.as_f64()).collect()
}

#[allow(clippy::too_many_arguments)]
fn update_slice(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
) {
    for i in 0..params.len() {
        m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i];
        let m_hat = m[i] / bc1;
        let v_hat = v[i] / bc2;
        params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(4, &[8, 8], 3, &mut rng);
        let y = net.forward(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 3);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(3, &[5], 2, &mut rng);
        let x = [0.3, -0.7, 0.9];
        // Loss = sum of outputs squared; dL/dy = 2y.
        let loss = |net: &Mlp| -> f64 { net.forward(&x).iter().map(|v| v * v).sum() };
        let acts = net.forward_cached(&x);
        let dout: Vec<f64> = acts.output().iter().map(|v| 2.0 * v).collect();
        let mut grads = Gradients::zeros_like(&net);
        net.backward(&acts, &dout, &mut grads);

        let eps = 1e-6;
        // Check a sample of weight gradients in every layer.
        for li in 0..net.layers.len() {
            for wi in (0..net.layers[li].w.len()).step_by(3) {
                let orig = net.layers[li].w[wi];
                net.layers[li].w[wi] = orig + eps;
                let up = loss(&net);
                net.layers[li].w[wi] = orig - eps;
                let down = loss(&net);
                net.layers[li].w[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.w[li][wi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {li} w{wi}: numeric {numeric} vs analytic {analytic}"
                );
            }
            for bi in 0..net.layers[li].b.len() {
                let orig = net.layers[li].b[bi];
                net.layers[li].b[bi] = orig + eps;
                let up = loss(&net);
                net.layers[li].b[bi] = orig - eps;
                let down = loss(&net);
                net.layers[li].b[bi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!((numeric - grads.b[li][bi]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn adam_reduces_simple_regression_loss() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(1, &[16], 1, &mut rng);
        let mut adam = Adam::new(&net, 3e-3);
        // Fit y = 2x − 1 on a few points.
        let data: Vec<(f64, f64)> = (-5..=5)
            .map(|i| (i as f64 / 5.0, 2.0 * i as f64 / 5.0 - 1.0))
            .collect();
        let loss_of = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| {
                    let p = net.forward(&[*x])[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let initial = loss_of(&net);
        for _ in 0..400 {
            let mut grads = Gradients::zeros_like(&net);
            for (x, y) in &data {
                let acts = net.forward_cached(&[*x]);
                let p = acts.output()[0];
                net.backward(&acts, &[2.0 * (p - y) / data.len() as f64], &mut grads);
            }
            adam.step(&mut net, &grads);
        }
        let fin = loss_of(&net);
        assert!(fin < initial * 0.01, "loss {initial} -> {fin}");
    }

    #[test]
    fn gradient_norm_and_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(2, &[4], 2, &mut rng);
        let mut grads = Gradients::zeros_like(&net);
        let acts = net.forward_cached(&[1.0, -1.0]);
        net.backward(&acts, &[1.0, 1.0], &mut grads);
        let norm = grads.norm();
        assert!(norm > 0.0);
        grads.scale(0.5);
        assert!((grads.norm() - 0.5 * norm).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_behavior() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = Mlp::new(3, &[4], 2, &mut rng);
        let copy = net.clone();
        let x = [0.4, -0.1, 0.8];
        assert_eq!(net.forward(&x), copy.forward(&x));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = Mlp::new(3, &[8, 4], 2, &mut rng);
        let text = serde_json::to_string(&net.to_value());
        let back = Mlp::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        for (a, b) in net.layers.iter().zip(back.layers.iter()) {
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.outputs, b.outputs);
            for (x, y) in a.w.iter().zip(b.w.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.b.iter().zip(b.b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn forward_batch_rows_are_bit_identical_to_forward() {
        let mut rng = StdRng::seed_from_u64(21);
        for (inputs, hidden, outputs) in [(3usize, vec![], 2usize), (18, vec![64, 64], 29)] {
            let net = Mlp::new(inputs, &hidden, outputs, &mut rng);
            for batch in [1usize, 2, 7, 33] {
                let xs: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..inputs).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .collect();
                let batched = net.forward_batch(&xs);
                assert_eq!(batched.len(), batch);
                for (x, row) in xs.iter().zip(batched.iter()) {
                    let single = net.forward(x);
                    assert_eq!(single.len(), row.len());
                    for (a, b) in single.iter().zip(row.iter()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "batched row diverged from per-vector forward"
                        );
                    }
                }
            }
        }
    }

    /// The per-vector dense layer that `Mlp::forward` and
    /// `forward_cached` ran before they shared the batched kernel: the
    /// oracle for both.
    fn oracle_layer(layer: &Linear, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..layer.outputs {
            let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
            let mut acc = layer.b[o];
            for (wi, xi) in row.iter().zip(x.iter()) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }

    /// The old `forward_cached` over [`oracle_layer`]: each layer's
    /// pre-activation and activated output.
    fn oracle_forward(net: &Mlp, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut pre = Vec::with_capacity(net.layers.len());
        let mut post = Vec::with_capacity(net.layers.len());
        let mut cur = x.to_vec();
        for (i, layer) in net.layers.iter().enumerate() {
            let mut out = Vec::new();
            oracle_layer(layer, &cur, &mut out);
            pre.push(out.clone());
            if i + 1 < net.layers.len() {
                for v in &mut out {
                    *v = v.tanh();
                }
            }
            post.push(out.clone());
            cur = out;
        }
        (pre, post)
    }

    /// The old `backward`, which re-derived tanh from the cached
    /// pre-activations.
    fn oracle_backward(net: &Mlp, x: &[f64], dout: &[f64], grads: &mut Gradients) {
        let (pre, post) = oracle_forward(net, x);
        let mut delta = dout.to_vec();
        for li in (0..net.layers.len()).rev() {
            let layer = &net.layers[li];
            if li + 1 < net.layers.len() {
                for (d, &p) in delta.iter_mut().zip(pre[li].iter()) {
                    let t = p.tanh();
                    *d *= 1.0 - t * t;
                }
            }
            let input: &[f64] = if li == 0 { x } else { &post[li - 1] };
            for (o, &d) in delta.iter().enumerate() {
                grads.b[li][o] += d;
                let row = &mut grads.w[li][o * layer.inputs..(o + 1) * layer.inputs];
                for (gi, &xi) in row.iter_mut().zip(input.iter()) {
                    *gi += d * xi;
                }
            }
            if li > 0 {
                let mut next = vec![0.0; layer.inputs];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
                    for (ni, &wi) in next.iter_mut().zip(row.iter()) {
                        *ni += d * wi;
                    }
                }
                delta = next;
            }
        }
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a} vs {b}");
        }
    }

    #[test]
    fn forward_paths_match_the_per_vector_oracle() {
        let mut rng = StdRng::seed_from_u64(31);
        let shapes = [
            (1usize, vec![], 1usize),
            (3, vec![5], 2),
            (7, vec![32, 16, 8], 4),
            (18, vec![64, 64], 29),
        ];
        for (inputs, hidden, outputs) in shapes {
            let net = Mlp::new(inputs, &hidden, outputs, &mut rng);
            for _ in 0..40 {
                let x: Vec<f64> = (0..inputs).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let (_, post) = oracle_forward(&net, &x);
                assert_bits_eq(&net.forward(&x), post.last().unwrap(), "forward");
                let acts = net.forward_cached(&x);
                assert_bits_eq(&acts.input, &x, "forward_cached input");
                assert_eq!(acts.post.len(), post.len());
                for (layer, (got, want)) in acts.post.iter().zip(&post).enumerate() {
                    assert_bits_eq(got, want, &format!("forward_cached layer {layer}"));
                }
                let dout: Vec<f64> = (0..outputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut got = Gradients::zeros_like(&net);
                net.backward(&acts, &dout, &mut got);
                let mut want = Gradients::zeros_like(&net);
                oracle_backward(&net, &x, &dout, &mut want);
                for li in 0..net.layers.len() {
                    assert_bits_eq(&got.w[li], &want.w[li], "weight gradient");
                    assert_bits_eq(&got.b[li], &want.b[li], "bias gradient");
                }
            }
        }
    }

    fn three_input_net() -> Mlp {
        Mlp::new(3, &[4], 2, &mut StdRng::seed_from_u64(8))
    }

    #[test]
    #[should_panic(expected = "input length != input_dim")]
    fn forward_rejects_a_short_input() {
        three_input_net().forward(&[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "input length != input_dim")]
    fn forward_rejects_a_long_input() {
        three_input_net().forward(&[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "input length != input_dim")]
    fn forward_cached_rejects_a_short_input() {
        three_input_net().forward_cached(&[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "input length != input_dim")]
    fn forward_cached_rejects_a_long_input() {
        three_input_net().forward_cached(&[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn forward_batch_handles_empty_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::new(3, &[4], 2, &mut rng);
        assert!(net.forward_batch(&[]).is_empty());
    }

    #[test]
    fn from_value_rejects_malformed() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = Mlp::new(2, &[3], 1, &mut rng);
        // Not an array at all.
        assert!(Mlp::from_value(&serde_json::Value::Null).is_err());
        // Empty layer list.
        assert!(Mlp::from_value(&serde_json::Value::Array(vec![])).is_err());
        // Corrupt a weight count.
        if let serde_json::Value::Array(mut layers) = net.to_value() {
            if let serde_json::Value::Object(pairs) = &mut layers[0] {
                for (k, v) in pairs.iter_mut() {
                    if k == "w" {
                        *v = serde_json::Value::Array(vec![serde_json::Value::from(1.0)]);
                    }
                }
            }
            let err = Mlp::from_value(&serde_json::Value::Array(layers)).unwrap_err();
            assert!(err.contains("inconsistent"), "{err}");
        }
    }
}
