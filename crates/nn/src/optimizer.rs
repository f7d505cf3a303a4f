//! The Adam optimizer over [`Network`] parameter visitors.

use crate::network::Network;

const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Adam (Kingma & Ba) with bias correction and the standard β₁ = 0.9,
/// β₂ = 0.999, ε = 1e-8.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step using the gradients currently stored in the
    /// network, then leaves the gradients untouched (callers decide when to
    /// zero them).
    pub fn step(&mut self, network: &mut dyn Network) {
        self.t += 1;
        let lr = self.lr;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let mut idx = 0;
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        network.visit_params(&mut |p, g| {
            if m_state.len() <= idx {
                m_state.push(vec![0.0; p.len()]); // eadrl-lint: allow(hot-path-alloc): first step only; later steps reuse the moment buffers
                v_state.push(vec![0.0; p.len()]); // eadrl-lint: allow(hot-path-alloc): first step only; later steps reuse the moment buffers
            }
            let m = &mut m_state[idx];
            let v = &mut v_state[idx];
            debug_assert_eq!(m.len(), p.len(), "Adam: topology changed between steps");
            // Lockstep zips so the whole update auto-vectorizes (the
            // indexed form keeps bounds checks in the loop body).
            for ((pv, &gv), (mv, vv)) in p
                .iter_mut()
                .zip(g.iter())
                .zip(m.iter_mut().zip(v.iter_mut()))
            {
                *mv = BETA1 * *mv + (1.0 - BETA1) * gv;
                *vv = BETA2 * *vv + (1.0 - BETA2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy quadratic "network": loss = Σ (p_i - target_i)², so the gradient
    /// is 2 (p - target).
    struct Quadratic {
        p: Vec<f64>,
        g: Vec<f64>,
        target: Vec<f64>,
    }

    impl Quadratic {
        fn new(start: Vec<f64>, target: Vec<f64>) -> Self {
            let n = start.len();
            Quadratic {
                p: start,
                g: vec![0.0; n],
                target,
            }
        }

        fn compute_grads(&mut self) {
            for i in 0..self.p.len() {
                self.g[i] = 2.0 * (self.p[i] - self.target[i]);
            }
        }

        fn loss(&self) -> f64 {
            self.p
                .iter()
                .zip(self.target.iter())
                .map(|(p, t)| (p - t) * (p - t))
                .sum()
        }
    }

    impl Network for Quadratic {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.p, &mut self.g);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut q = Quadratic::new(vec![5.0, -3.0, 0.7], vec![1.0, 2.0, -0.5]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            q.compute_grads();
            opt.step(&mut q);
        }
        assert!(q.loss() < 1e-6, "loss = {}", q.loss());
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, |Δp| of the very first step ≈ lr.
        let mut q = Quadratic::new(vec![100.0], vec![0.0]);
        let mut opt = Adam::new(0.01);
        q.compute_grads();
        let before = q.p[0];
        opt.step(&mut q);
        assert!(((before - q.p[0]).abs() - 0.01).abs() < 1e-6);
    }
}
