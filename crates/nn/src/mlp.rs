//! Multi-layer perceptron built from [`Dense`] layers.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::network::Network;
use eadrl_linalg::Matrix;
use eadrl_rng::DetRng;

/// A feed-forward network: a chain of [`Dense`] layers.
///
/// Both the paper's policy and value networks are MLPs ("both policy and
/// value networks are based on MLPs"), and the MLP base forecaster reuses
/// this type directly.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from a sizes vector and a hidden activation.
    ///
    /// `sizes = [in, h1, …, out]` creates `sizes.len() - 1` layers; hidden
    /// layers use `hidden_activation`, the final layer uses
    /// `output_activation`.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(
        rng: &mut DetRng,
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(sizes.len() >= 2, "Mlp::new needs at least [in, out] sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(Dense::new(rng, sizes[i], sizes[i + 1], act));
        }
        Mlp { layers }
    }

    /// Replaces the final layer with a small-uniform-initialized one
    /// (DDPG-style: keeps initial outputs near zero).
    pub fn with_small_final_layer(mut self, rng: &mut DetRng, scale: f64) -> Self {
        if let Some(last) = self.layers.last_mut() {
            let (in_dim, out_dim) = (last.in_dim(), last.out_dim());
            let act = Activation::Identity;
            *last = Dense::new_small(rng, in_dim, out_dim, act, scale);
        }
        self
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::out_dim)
    }

    /// Mutable access to the final layer (informed output initialization).
    pub fn final_layer_mut(&mut self) -> Option<&mut Dense> {
        self.layers.last_mut()
    }

    /// Forward pass with caching (training).
    pub fn forward(&mut self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in self.layers.iter_mut() {
            x = layer.forward(&x);
        }
        x
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in self.layers.iter() {
            x = layer.forward_inference(&x);
        }
        x
    }

    /// Backward pass through all layers; returns the input gradient.
    pub fn backward(&mut self, grad_output: &[f64]) -> Vec<f64> {
        let mut g = grad_output.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Batched forward pass with caching: each layer's output batch feeds
    /// the next layer directly out of its persistent cache, so the whole
    /// pass is allocation-free at steady state. Returns the final layer's
    /// output rows.
    pub fn forward_batch(&mut self, input: &Matrix) -> &Matrix {
        let mut _kernel = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.forward_batch");
        _kernel.record("rows", input.rows().into());
        let n = self.layers.len();
        for idx in 0..n {
            let (before, rest) = self.layers.split_at_mut(idx);
            if idx == 0 {
                rest[0].forward_batch(input);
            } else {
                let prev = before[idx - 1].batch_output();
                rest[0].forward_batch(prev);
            }
        }
        self.layers[n - 1].batch_output()
    }

    /// Output rows of the last [`Mlp::forward_batch`] call (the final
    /// layer's cached batch output).
    pub fn batch_output(&self) -> &Matrix {
        self.layers[self.layers.len() - 1].batch_output()
    }

    /// Input-gradient rows of the last [`Mlp::backward_batch`] call (the
    /// first layer's cached input gradient).
    pub fn batch_grad_input(&self) -> &Matrix {
        self.layers[0].batch_grad_input()
    }

    /// Batched backward pass through all layers (gradients accumulate in
    /// sample order, exactly as per-sample [`Mlp::backward`] calls would);
    /// returns the input-gradient rows.
    pub fn backward_batch(&mut self, grad_output: &Matrix) -> &Matrix {
        let mut _kernel = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.backward_batch");
        _kernel.record("rows", grad_output.rows().into());
        let n = self.layers.len();
        for idx in (0..n).rev() {
            let (before, rest) = self.layers.split_at_mut(idx + 1);
            if idx == n - 1 {
                before[idx].backward_batch(grad_output);
            } else {
                let g = rest[0].batch_grad_input();
                before[idx].backward_batch(g);
            }
        }
        self.layers[0].batch_grad_input()
    }

    /// Batched backward pass for training loops that discard the input
    /// gradient: identical parameter-gradient accumulation to
    /// [`Mlp::backward_batch`] (bitwise), but the first layer skips its
    /// input-gradient GEMM — nothing sits below it to receive one.
    pub fn backward_batch_weights_only(&mut self, grad_output: &Matrix) {
        let mut _kernel = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.backward_batch");
        _kernel.record("rows", grad_output.rows().into());
        let n = self.layers.len();
        for idx in (0..n).rev() {
            let (before, rest) = self.layers.split_at_mut(idx + 1);
            let g = if idx == n - 1 {
                grad_output
            } else {
                rest[0].batch_grad_input()
            };
            if idx == 0 {
                before[idx].backward_batch_weights_only(g);
            } else {
                before[idx].backward_batch(g);
            }
        }
    }

    /// Batched backward pass computing only the input gradients — no
    /// layer's `grad_w`/`grad_b` is touched. Bitwise identical input
    /// gradients to [`Mlp::backward_batch`], minus the weight-gradient
    /// GEMMs; see [`Dense::backward_batch_input_only`].
    pub fn backward_batch_input_only(&mut self, grad_output: &Matrix) -> &Matrix {
        let mut _kernel = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.backward_batch");
        _kernel.record("rows", grad_output.rows().into());
        let n = self.layers.len();
        for idx in (0..n).rev() {
            let (before, rest) = self.layers.split_at_mut(idx + 1);
            if idx == n - 1 {
                before[idx].backward_batch_input_only(grad_output);
            } else {
                let g = rest[0].batch_grad_input();
                before[idx].backward_batch_input_only(g);
            }
        }
        self.layers[0].batch_grad_input()
    }
}

impl Network for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for layer in self.layers.iter_mut() {
            layer.visit_params(f);
        }
    }
}

impl crate::network::BatchNetwork for Mlp {
    fn forward_batch(&mut self, input: &Matrix) -> &Matrix {
        Mlp::forward_batch(self, input)
    }

    fn backward_batch(&mut self, grad_output: &Matrix) -> &Matrix {
        Mlp::backward_batch(self, grad_output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::optimizer::Adam;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = DetRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut rng, &[5, 8, 3], Activation::Relu, Activation::Identity);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_size_panics() {
        let mut rng = DetRng::seed_from_u64(0);
        let _ = Mlp::new(&mut rng, &[5], Activation::Relu, Activation::Identity);
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&mut rng, &[3, 4, 2], Activation::Tanh, Activation::Identity);
        let x = [0.2, -0.5, 0.8];
        let target = [1.0, -1.0];
        let y = mlp.forward(&x);
        let grad = mse_loss_grad(&y, &target);
        mlp.backward(&grad);

        // Spot-check parameter gradients against central finite differences.
        let flat = mlp.flat_params();
        let mut grads = Vec::new();
        mlp.visit_params(&mut |_p, g| grads.extend_from_slice(g));
        let h = 1e-6;
        for &idx in &[0usize, 5, 11, flat.len() - 1] {
            let mut up = flat.clone();
            up[idx] += h;
            let mut dn = flat.clone();
            dn[idx] -= h;
            mlp.load_flat_params(&up);
            let lu = mse_loss(&mlp.forward_inference(&x), &target);
            mlp.load_flat_params(&dn);
            let ld = mse_loss(&mlp.forward_inference(&x), &target);
            mlp.load_flat_params(&flat);
            let numeric = (lu - ld) / (2.0 * h);
            assert!(
                (numeric - grads[idx]).abs() < 1e-5,
                "param {idx}: {numeric} vs {}",
                grads[idx]
            );
        }
    }

    #[test]
    fn can_learn_xor_like_function() {
        // Regression on f(x1, x2) = x1 * x2 over {-1, 1}^2 — needs the
        // hidden layer; a linear model cannot fit it.
        let mut rng = DetRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[2, 8, 1], Activation::Tanh, Activation::Identity);
        let data = [
            ([-1.0, -1.0], 1.0),
            ([-1.0, 1.0], -1.0),
            ([1.0, -1.0], -1.0),
            ([1.0, 1.0], 1.0),
        ];
        let mut opt = Adam::new(0.05);
        for _ in 0..400 {
            mlp.zero_grad();
            for (x, t) in data.iter() {
                let y = mlp.forward(x);
                let g = mse_loss_grad(&y, &[*t]);
                mlp.backward(&g);
            }
            opt.step(&mut mlp);
        }
        for (x, t) in data.iter() {
            let y = mlp.forward_inference(x)[0];
            assert!((y - t).abs() < 0.2, "f({x:?}) = {y}, want {t}");
        }
    }

    #[test]
    fn small_final_layer_outputs_near_zero() {
        let mut rng = DetRng::seed_from_u64(5);
        let mlp = Mlp::new(
            &mut rng,
            &[4, 16, 3],
            Activation::Relu,
            Activation::Identity,
        )
        .with_small_final_layer(&mut rng, 1e-3);
        let y = mlp.forward_inference(&[1.0, -1.0, 2.0, 0.5]);
        assert!(y.iter().all(|v| v.abs() < 0.1), "{y:?}");
    }

    #[test]
    fn flat_roundtrip_preserves_behaviour() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut a = Mlp::new(&mut rng, &[3, 5, 2], Activation::Tanh, Activation::Identity);
        let mut rng2 = DetRng::seed_from_u64(99);
        let mut b = Mlp::new(
            &mut rng2,
            &[3, 5, 2],
            Activation::Tanh,
            Activation::Identity,
        );
        b.load_flat_params(&a.flat_params());
        let x = [0.1, 0.2, 0.3];
        assert_eq!(a.forward_inference(&x), b.forward_inference(&x));
    }
}
