//! A minimal dense neural network with manual backpropagation and Adam.
//!
//! Kept deliberately small: `f64` weights, tanh hidden activations, linear
//! output. This is all PPO needs for the observation sizes in this
//! workspace (a handful of circuit features), and it avoids any external
//! ML dependency.
//!
//! # One kernel
//!
//! Each layer keeps its weights input-major: the weight from input `i`
//! to output `o` is `w[i * outputs + o]`, so the weights one input feeds
//! lie side by side. Every product in this module runs on one
//! register-blocked kernel, `dense`: per row of inputs it holds a block
//! of 16 outputs in registers and, input by input, adds that input times
//! the 16 weights it feeds; the last outputs of a row go in blocks of 8,
//! 4 and 1. Serving's [`Mlp::forward`] and [`Mlp::forward_batch`], PPO's
//! rollout, and PPO's minibatch pass ([`Mlp::forward_minibatch`] and
//! [`Mlp::backward_minibatch`]) all run it:
//!
//! * a layer's outputs are `dense(x, W, b)`;
//! * its weight gradients are `dense(xᵀ, δ, 0)`: row `i` of `xᵀ` holds
//!   input `i` of every sample, and the rows of `δ` stand in for the
//!   weights;
//! * the gradient it passes back is `dense(δ, Wᵀ, 0)`, with `Wᵀ` the
//!   row-major copy of the weights.
//!
//! # Order invariants
//!
//! Floating-point addition is not associative, so three orders are
//! fixed. They are the orders of the per-sample passes this module
//! replaced, which keeps every trained weight bit-identical to them:
//!
//! 1. each kernel output is its bias (or `0.0`) with its products added
//!    in input order, so a weight gradient adds the samples in
//!    minibatch order and the gradient passed back adds over outputs in
//!    output order;
//! 2. each bias gradient adds the samples in minibatch order, from
//!    `0.0`;
//! 3. [`Gradients::norm`] sums the squares of each layer's weights
//!    row-major (output by output), then of every layer's biases.
//!
//! Nothing is fused (no `mul_add`) and no sum is regrouped. [`Mlp::new`]
//! draws the weights in row-major order and [`Mlp::to_value`] writes
//! them row-major, so the storage order never shows outside this module.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outputs the dense kernel holds in registers per pass over a row.
const BLOCK: usize = 16;

/// The dense kernel: `out[r * outputs + o] = init[o] + Σ_i
/// xs[r * inputs + i] · w[i * outputs + o]` over `rows` row-major input
/// rows, where `outputs = init.len()` and `w` is input-major. Each sum
/// starts from `init[o]` and adds its products in input order, so an
/// output depends neither on the other rows nor on the blocking.
///
/// # Panics
///
/// Panics if `xs` does not hold exactly `rows` rows of `inputs`.
fn dense(xs: &[f64], rows: usize, inputs: usize, w: &[f64], init: &[f64], out: &mut Vec<f64>) {
    assert_eq!(xs.len(), rows * inputs, "input length != input_dim");
    let outputs = init.len();
    debug_assert_eq!(w.len(), inputs * outputs);
    out.clear();
    out.resize(rows * outputs, 0.0);
    let mut o0 = 0;
    while outputs - o0 >= BLOCK {
        dense_block::<BLOCK>(xs, inputs, w, init, o0, out);
        o0 += BLOCK;
    }
    if outputs - o0 >= 8 {
        dense_block::<8>(xs, inputs, w, init, o0, out);
        o0 += 8;
    }
    if outputs - o0 >= 4 {
        dense_block::<4>(xs, inputs, w, init, o0, out);
        o0 += 4;
    }
    for o in o0..outputs {
        dense_block::<1>(xs, inputs, w, init, o, out);
    }
}

/// Outputs `o0..o0 + N` of every row of [`dense`], with the `N` running
/// sums in an array the compiler keeps in registers.
fn dense_block<const N: usize>(
    xs: &[f64],
    inputs: usize,
    w: &[f64],
    init: &[f64],
    o0: usize,
    out: &mut [f64],
) {
    let outputs = init.len();
    let start: [f64; N] = init[o0..o0 + N].try_into().expect("block inside the row");
    for (r, y) in out.chunks_exact_mut(outputs).enumerate() {
        let x = &xs[r * inputs..(r + 1) * inputs];
        let mut acc = start;
        for (wi, &xi) in w.chunks_exact(outputs).zip(x) {
            let wi: &[f64; N] = wi[o0..o0 + N].try_into().expect("block inside the row");
            for k in 0..N {
                acc[k] += wi[k] * xi;
            }
        }
        y[o0..o0 + N].copy_from_slice(&acc);
    }
}

/// The `cols × rows` transpose of a row-major `rows × cols` matrix.
fn transposed(m: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut t = Vec::with_capacity(m.len());
    for c in 0..cols {
        t.extend((0..rows).map(|r| m[r * cols + c]));
    }
    t
}

/// One dense layer: `y = W·x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Linear {
    /// Input-major weights: `w[i * outputs + o]` links input `i` to
    /// output `o`.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Linear {
    fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Self {
        // Orthogonal-ish init: scaled uniform (He-style bound), drawn
        // row-major (output by output).
        let bound = (6.0 / (inputs + outputs) as f64).sqrt();
        let row_major: Vec<f64> = (0..inputs * outputs)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            w: transposed(&row_major, outputs, inputs),
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// The weights row-major (`out × in`), as checkpoints store them.
    fn row_major(&self) -> Vec<f64> {
        transposed(&self.w, self.inputs, self.outputs)
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

/// Every layer's output for a minibatch of input rows, kept by
/// [`Mlp::forward_minibatch`] for [`Mlp::backward_minibatch`].
#[derive(Debug, Clone)]
pub struct Activations {
    rows: usize,
    /// The input rows, row-major.
    input: Vec<f64>,
    /// `post[l]` = layer `l`'s activated output rows, row-major
    /// (`post.last()` is linear).
    post: Vec<Vec<f64>>,
}

impl Activations {
    /// The network's output rows, row-major.
    pub fn output(&self) -> &[f64] {
        self.post.last().expect("at least one layer")
    }
}

/// Gradient buffer matching an [`Mlp`]'s parameter layout.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Input-major, like the weights.
    w: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

impl Gradients {
    /// Global L2 norm of all gradient entries. The squares are summed
    /// in one fixed order, each layer's weights row-major and then every
    /// layer's biases, so the clip factor PPO derives from it does not
    /// depend on the storage order.
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for (w, b) in self.w.iter().zip(&self.b) {
            let outputs = b.len();
            for o in 0..outputs {
                for g in w[o..].iter().step_by(outputs) {
                    acc += g * g;
                }
            }
        }
        for g in self.b.iter().flatten() {
            acc += g * g;
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
    /// traffic (each weight block stays in cache across the batch),
    /// which is where the miss-path speedup in serving comes from.
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

    /// Runs every layer over `rows` row-major input rows and returns
    /// the row-major output rows.
    fn forward_rows(&self, xs: &[f64], rows: usize) -> Vec<f64> {
        let mut cur: Vec<f64> = Vec::new();
        let mut next: Vec<f64> = Vec::new();
        for i in 0..self.layers.len() {
            let input = if i == 0 { xs } else { &cur };
            self.layer(i, input, rows, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Layer `i` over `rows` rows of `xs`: the dense kernel, then tanh
    /// on every hidden layer.
    fn layer(&self, i: usize, xs: &[f64], rows: usize, out: &mut Vec<f64>) {
        let layer = &self.layers[i];
        dense(xs, rows, layer.inputs, &layer.w, &layer.b, out);
        if i + 1 < self.layers.len() {
            for v in out.iter_mut() {
                *v = v.tanh();
            }
        }
    }

    /// Forward pass over `rows` row-major input rows that keeps every
    /// layer's output for [`Mlp::backward_minibatch`]. Each output row
    /// is bit-identical to [`Mlp::forward`] on its input row.
    ///
    /// # Panics
    ///
    /// Panics if `xs` does not hold `rows` rows of the input dimension.
    pub fn forward_minibatch(&self, xs: &[f64], rows: usize) -> Activations {
        let mut post: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        for i in 0..self.layers.len() {
            let mut out = Vec::new();
            self.layer(i, post.last().map_or(xs, Vec::as_slice), rows, &mut out);
            post.push(out);
        }
        Activations {
            rows,
            input: xs.to_vec(),
            post,
        }
    }

    /// The batched backward pass: the gradients of `Σ_r dout[r] · y[r]`
    /// with respect to every parameter, where `y[r]` is output row `r`
    /// of `acts` and `dout` holds one row of `dL/dy` per input row.
    ///
    /// Each weight and bias gradient adds the rows' contributions in row
    /// order, and each gradient passed back to a layer's inputs sums
    /// over its outputs in output order from `0.0`, so the result is
    /// bit-identical to running every row through its own backward pass
    /// in row order and adding into zeroed gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dout` does not hold one row of the output dimension
    /// per input row of `acts`.
    pub fn backward_minibatch(&self, acts: &Activations, dout: &[f64]) -> Gradients {
        let rows = acts.rows;
        assert_eq!(
            dout.len(),
            rows * self.output_dim(),
            "dout length != rows × output_dim"
        );
        let n_layers = self.layers.len();
        let mut w = vec![Vec::new(); n_layers];
        let mut b = vec![Vec::new(); n_layers];
        let mut delta = dout.to_vec();
        for li in (0..n_layers).rev() {
            let layer = &self.layers[li];
            // Hidden layers have tanh: δ ← δ ⊙ (1 − tanh²(pre)), and
            // their cached output is tanh(pre).
            if li + 1 < n_layers {
                for (d, &t) in delta.iter_mut().zip(&acts.post[li]) {
                    *d *= 1.0 - t * t;
                }
            }
            let input = if li == 0 {
                &acts.input
            } else {
                &acts.post[li - 1]
            };
            let x_t = transposed(input, rows, layer.inputs);
            dense(
                &x_t,
                layer.inputs,
                rows,
                &delta,
                &vec![0.0; layer.outputs],
                &mut w[li],
            );
            b[li] = vec![0.0; layer.outputs];
            for r in 0..rows {
                let d = &delta[r * layer.outputs..(r + 1) * layer.outputs];
                for (g, &d) in b[li].iter_mut().zip(d) {
                    *g += d;
                }
            }
            if li > 0 {
                let mut next = Vec::new();
                dense(
                    &delta,
                    rows,
                    layer.outputs,
                    &layer.row_major(),
                    &vec![0.0; layer.inputs],
                    &mut next,
                );
                delta = next;
            }
        }
        Gradients { w, b }
    }

    /// Serializes the network as an explicit JSON value (see
    /// [`Mlp::from_value`]), each layer's weights row-major. Weights
    /// survive a write→parse cycle bit-exactly.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Array(
            self.layers
                .iter()
                .map(|l| {
                    Value::object(vec![
                        ("inputs", Value::from(l.inputs)),
                        ("outputs", Value::from(l.outputs)),
                        ("w", float_array(&l.row_major())),
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
                    w: transposed(&w, outputs, inputs),
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

/// The per-sample forward and backward passes PPO ran before each
/// minibatch went batched, over the per-vector dense layer: the oracle
/// for the kernel here and for PPO's update in `ppo.rs`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Gradients, Linear, Mlp};

    /// Zero gradients shaped like `net`.
    pub(crate) fn zero_gradients(net: &Mlp) -> Gradients {
        Gradients {
            w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// The per-vector dense layer: each output is its bias plus the
    /// products of its weight row, added in input order.
    fn layer(layer: &Linear, x: &[f64]) -> Vec<f64> {
        (0..layer.outputs)
            .map(|o| {
                let mut acc = layer.b[o];
                for (i, xi) in x.iter().enumerate() {
                    acc += layer.w[i * layer.outputs + o] * xi;
                }
                acc
            })
            .collect()
    }

    /// The old `forward_cached`: each layer's pre-activation and
    /// activated output for one input vector.
    pub(crate) fn forward(net: &Mlp, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut pre = Vec::with_capacity(net.layers.len());
        let mut post = Vec::with_capacity(net.layers.len());
        let mut cur = x.to_vec();
        for (i, l) in net.layers.iter().enumerate() {
            let mut out = layer(l, &cur);
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

    /// The old `backward`: adds one sample's gradients into `grads`,
    /// re-deriving tanh from the pre-activations.
    pub(crate) fn backward(net: &Mlp, x: &[f64], dout: &[f64], grads: &mut Gradients) {
        let (pre, post) = forward(net, x);
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
                for (i, &xi) in input.iter().enumerate() {
                    grads.w[li][i * layer.outputs + o] += d * xi;
                }
            }
            if li > 0 {
                let mut next = vec![0.0; layer.inputs];
                for (o, &d) in delta.iter().enumerate() {
                    for (i, ni) in next.iter_mut().enumerate() {
                        *ni += d * layer.w[i * layer.outputs + o];
                    }
                }
                delta = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_rows(rng: &mut StdRng, rows: usize, width: usize, range: f64) -> Vec<f64> {
        (0..rows * width)
            .map(|_| rng.gen_range(-range..range))
            .collect()
    }

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
        let xs = [0.3, -0.7, 0.9, -0.2, 0.4, 0.1];
        // Loss = sum of outputs squared over both rows; dL/dy = 2y.
        let loss = |net: &Mlp| -> f64 {
            xs.chunks(3)
                .flat_map(|x| net.forward(x))
                .map(|v| v * v)
                .sum()
        };
        let acts = net.forward_minibatch(&xs, 2);
        let dout: Vec<f64> = acts.output().iter().map(|v| 2.0 * v).collect();
        let grads = net.backward_minibatch(&acts, &dout);

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
        let xs: Vec<f64> = (-5..=5).map(|i| i as f64 / 5.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let loss_of = |net: &Mlp| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| {
                    let p = net.forward(&[*x])[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / xs.len() as f64
        };
        let initial = loss_of(&net);
        for _ in 0..400 {
            let acts = net.forward_minibatch(&xs, xs.len());
            let dout: Vec<f64> = acts
                .output()
                .iter()
                .zip(&ys)
                .map(|(p, y)| 2.0 * (p - y) / xs.len() as f64)
                .collect();
            let grads = net.backward_minibatch(&acts, &dout);
            adam.step(&mut net, &grads);
        }
        let fin = loss_of(&net);
        assert!(fin < initial * 0.01, "loss {initial} -> {fin}");
    }

    #[test]
    fn gradient_norm_and_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(2, &[4], 2, &mut rng);
        let acts = net.forward_minibatch(&[1.0, -1.0], 1);
        let mut grads = net.backward_minibatch(&acts, &[1.0, 1.0]);
        let norm = grads.norm();
        assert!(norm > 0.0);
        grads.scale(0.5);
        assert!((grads.norm() - 0.5 * norm).abs() < 1e-12);
    }

    #[test]
    fn gradient_norm_sums_row_major() {
        // One pair of orders can round alike; twenty rarely all do.
        let mut rng = StdRng::seed_from_u64(6);
        let net = Mlp::new(18, &[64, 64], 29, &mut rng);
        for _ in 0..20 {
            let acts = net.forward_minibatch(&random_rows(&mut rng, 16, 18, 2.0), 16);
            let grads = net.backward_minibatch(&acts, &random_rows(&mut rng, 16, 29, 1.0));
            let mut acc = 0.0;
            for (w, l) in grads.w.iter().zip(&net.layers) {
                for g in transposed(w, l.inputs, l.outputs) {
                    acc += g * g;
                }
            }
            for g in grads.b.iter().flatten() {
                acc += g * g;
            }
            assert_eq!(grads.norm().to_bits(), acc.sqrt().to_bits());
        }
    }

    #[test]
    fn weights_are_drawn_and_written_row_major() {
        let (inputs, outputs) = (3, 2);
        let net = Mlp::new(inputs, &[], outputs, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(2);
        let bound = (6.0 / (inputs + outputs) as f64).sqrt();
        let drawn: Vec<f64> = (0..inputs * outputs)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        let layer = &net.layers[0];
        for o in 0..outputs {
            for i in 0..inputs {
                assert_eq!(layer.w[i * outputs + o], drawn[o * inputs + i]);
            }
        }
        let value = net.to_value();
        let written = float_vec(value.as_array().unwrap()[0].get("w").unwrap()).unwrap();
        assert_eq!(written, drawn);
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

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{k}]: {a} vs {b}");
        }
    }

    #[test]
    fn forward_paths_match_the_per_vector_oracle() {
        let mut rng = StdRng::seed_from_u64(31);
        // Widths cover full 16-blocks and every tail block (8, 4, 1).
        let shapes = [
            (1usize, vec![], 1usize),
            (3, vec![5], 2),
            (7, vec![32, 16, 8], 4),
            (18, vec![64, 64], 29),
            (18, vec![64, 64], 1),
            (5, vec![47], 13),
        ];
        for (inputs, hidden, outputs) in shapes {
            let net = Mlp::new(inputs, &hidden, outputs, &mut rng);
            for rows in [1usize, 2, 16, 17, 64] {
                let xs = random_rows(&mut rng, rows, inputs, 3.0);
                let dout = random_rows(&mut rng, rows, outputs, 1.0);
                let acts = net.forward_minibatch(&xs, rows);
                assert_bits_eq(&acts.input, &xs, "forward_minibatch input");
                let mut want = oracle::zero_gradients(&net);
                for (r, x) in xs.chunks(inputs).enumerate() {
                    let (_, post) = oracle::forward(&net, x);
                    assert_bits_eq(&net.forward(x), post.last().unwrap(), "forward");
                    for (layer, want) in post.iter().enumerate() {
                        let width = want.len();
                        let got = &acts.post[layer][r * width..(r + 1) * width];
                        assert_bits_eq(got, want, &format!("forward_minibatch layer {layer}"));
                    }
                    let d = &dout[r * outputs..(r + 1) * outputs];
                    oracle::backward(&net, x, d, &mut want);
                }
                let got = net.backward_minibatch(&acts, &dout);
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
    fn forward_minibatch_rejects_a_short_input() {
        three_input_net().forward_minibatch(&[0.1, 0.2, 0.3, 0.4, 0.5], 2);
    }

    #[test]
    #[should_panic(expected = "input length != input_dim")]
    fn forward_minibatch_rejects_a_long_input() {
        three_input_net().forward_minibatch(&[0.1, 0.2, 0.3, 0.4], 1);
    }

    #[test]
    #[should_panic(expected = "dout length != rows × output_dim")]
    fn backward_minibatch_rejects_a_short_dout() {
        let net = three_input_net();
        let acts = net.forward_minibatch(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 2);
        net.backward_minibatch(&acts, &[1.0, 1.0]);
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
