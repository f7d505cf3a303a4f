//! CART regression trees and random forests.

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use eadrl_rng::DetRng;

/// One node of a regression tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A CART regression tree: greedy variance-reduction splits, mean leaves.
#[derive(Debug, Clone)]
pub struct TreeRegressor {
    max_depth: usize,
    min_samples_leaf: usize,
    /// Number of features considered per split; `0` means all (plain CART).
    mtry: usize,
    seed: u64,
    root: Option<Node>,
}

impl TreeRegressor {
    /// Creates a full-featured CART tree (all features at every split).
    pub fn new(max_depth: usize, min_samples_leaf: usize) -> Self {
        TreeRegressor {
            max_depth: max_depth.max(1),
            min_samples_leaf: min_samples_leaf.max(1),
            mtry: 0,
            seed: 0,
            root: None,
        }
    }

    /// Creates a randomized tree considering `mtry` features per split
    /// (random-forest member).
    pub fn randomized(max_depth: usize, min_samples_leaf: usize, mtry: usize, seed: u64) -> Self {
        TreeRegressor {
            max_depth: max_depth.max(1),
            min_samples_leaf: min_samples_leaf.max(1),
            mtry,
            seed,
            root: None,
        }
    }

    fn build(
        inputs: &[Vec<f64>],
        targets: &[f64],
        indices: &mut [usize],
        depth: usize,
        cfg: &TreeRegressor,
        rng: &mut DetRng,
    ) -> Node {
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
        if depth >= cfg.max_depth || indices.len() < 2 * cfg.min_samples_leaf {
            return Node::Leaf { value: mean };
        }
        let n_features = inputs[0].len();
        // Candidate features for this split.
        let features: Vec<usize> = if cfg.mtry == 0 || cfg.mtry >= n_features {
            (0..n_features).collect()
        } else {
            // Sample cfg.mtry distinct features.
            let mut all: Vec<usize> = (0..n_features).collect();
            for i in 0..cfg.mtry {
                let j = rng.random_range(i..all.len());
                all.swap(i, j);
            }
            all.truncate(cfg.mtry);
            all
        };

        // Greedy best split by SSE reduction.
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let n = indices.len() as f64;
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        let mut sorted = indices.to_vec();
        for &feat in &features {
            sorted.sort_by(|&a, &b| {
                inputs[a][feat]
                    .partial_cmp(&inputs[b][feat])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..sorted.len() - 1 {
                let y = targets[sorted[pos]];
                left_sum += y;
                left_sq += y * y;
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                if (pos + 1) < cfg.min_samples_leaf
                    || (sorted.len() - pos - 1) < cfg.min_samples_leaf
                {
                    continue;
                }
                // Skip ties: can't split between equal feature values.
                let v_here = inputs[sorted[pos]][feat];
                let v_next = inputs[sorted[pos + 1]][feat];
                if (v_next - v_here).abs() < 1e-12 {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feat, 0.5 * (v_here + v_next), sse));
                }
            }
        }

        match best {
            Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                let (mut li, mut ri): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| inputs[i][feature] <= threshold);
                if li.is_empty() || ri.is_empty() {
                    return Node::Leaf { value: mean };
                }
                let left = Self::build(inputs, targets, &mut li, depth + 1, cfg, rng);
                let right = Self::build(inputs, targets, &mut ri, depth + 1, cfg, rng);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            _ => Node::Leaf { value: mean },
        }
    }
}

impl TabularModel for TreeRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let mut indices: Vec<usize> = (0..inputs.len()).collect();
        let cfg = self.clone();
        let mut rng = DetRng::seed_from_u64(self.seed);
        self.root = Some(TreeRegressor::build(
            inputs,
            targets,
            &mut indices,
            0,
            &cfg,
            &mut rng,
        ));
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let mut node = match &self.root {
            Some(n) => n,
            None => return 0.0,
        };
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if input.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Bagged ensemble of randomized [`TreeRegressor`]s.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    n_trees: usize,
    max_depth: usize,
    min_samples_leaf: usize,
    seed: u64,
    trees: Vec<TreeRegressor>,
}

impl RandomForestRegressor {
    /// Creates an unfitted forest.
    pub fn new(n_trees: usize, max_depth: usize, min_samples_leaf: usize, seed: u64) -> Self {
        RandomForestRegressor {
            n_trees: n_trees.max(1),
            max_depth,
            min_samples_leaf,
            seed,
            trees: Vec::new(),
        }
    }
}

impl TabularModel for RandomForestRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let n = inputs.len();
        let n_features = inputs[0].len();
        // Standard regression-forest default: mtry = max(1, p / 3).
        let mtry = (n_features / 3).max(1);
        let mut rng = DetRng::seed_from_u64(self.seed);
        self.trees.clear();
        for t in 0..self.n_trees {
            // Bootstrap sample.
            let mut boot_x = Vec::with_capacity(n);
            let mut boot_y = Vec::with_capacity(n);
            for _ in 0..n {
                let i = rng.random_range(0..n);
                boot_x.push(inputs[i].clone());
                boot_y.push(targets[i]);
            }
            let mut tree = TreeRegressor::randomized(
                self.max_depth,
                self.min_samples_leaf,
                mtry,
                self.seed.wrapping_add(t as u64 + 1),
            );
            tree.fit(&boot_x, &boot_y)?;
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(input)).sum::<f64>() / self.trees.len() as f64
    }
}

/// A decision-tree forecaster over embedded windows (paper family **DT**).
pub fn decision_tree(
    k: usize,
    max_depth: usize,
    min_samples_leaf: usize,
) -> Windowed<TreeRegressor> {
    Windowed::new(
        format!("DT(d={max_depth})"),
        k,
        TreeRegressor::new(max_depth, min_samples_leaf),
    )
}

/// A random-forest forecaster over embedded windows (paper family **RFR**).
pub fn random_forest(
    k: usize,
    n_trees: usize,
    max_depth: usize,
    seed: u64,
) -> Windowed<RandomForestRegressor> {
    Windowed::new(
        format!("RFR(n={n_trees},d={max_depth})"),
        k,
        RandomForestRegressor::new(n_trees, max_depth, 2, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    /// Longest root-to-leaf path, 0 for a stump or an unfitted tree.
    fn depth(tree: &TreeRegressor) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        tree.root.as_ref().map_or(0, d)
    }

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 > 0.5 else 0; the second feature mirrors the first so
        // randomized trees (mtry = 1) always see an informative feature.
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 39.0, i as f64 / 39.0])
            .collect();
        let targets: Vec<f64> = inputs
            .iter()
            .map(|x| if x[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        (inputs, targets)
    }

    #[test]
    fn tree_learns_step_function() {
        let (x, y) = step_data();
        let mut tree = TreeRegressor::new(3, 1);
        tree.fit(&x, &y).unwrap();
        assert_eq!(tree.predict(&[0.1, 0.1]), 0.0);
        assert_eq!(tree.predict(&[0.9, 0.9]), 1.0);
        assert!(depth(&tree) >= 1);
    }

    #[test]
    fn depth_limit_is_respected() {
        let inputs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        let mut tree = TreeRegressor::new(2, 1);
        tree.fit(&inputs, &targets).unwrap();
        assert!(depth(&tree) <= 2);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let (x, y) = step_data();
        let mut tree = TreeRegressor::new(10, 20);
        tree.fit(&x, &y).unwrap();
        // With min leaf 20 of 40 samples only the root split is possible.
        assert!(depth(&tree) <= 1);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 20];
        let mut tree = TreeRegressor::new(5, 1);
        tree.fit(&x, &y).unwrap();
        assert_eq!(depth(&tree), 0);
        assert_eq!(tree.predict(&[3.0]), 5.0);
    }

    #[test]
    fn unfitted_tree_predicts_zero() {
        let tree = TreeRegressor::new(3, 1);
        assert_eq!(tree.predict(&[1.0]), 0.0);
    }

    #[test]
    fn forest_averages_trees_and_is_deterministic() {
        let (x, y) = step_data();
        let mut f1 = RandomForestRegressor::new(10, 4, 1, 42);
        let mut f2 = RandomForestRegressor::new(10, 4, 1, 42);
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        assert_eq!(f1.trees.len(), 10);
        assert_eq!(f1.predict(&[0.2, 0.2]), f2.predict(&[0.2, 0.2]));
        assert!(f1.predict(&[0.9, 0.9]) > 0.7);
        assert!(f1.predict(&[0.1, 0.1]) < 0.3);
    }

    #[test]
    fn forest_forecaster_tracks_seasonal_series() {
        let series: Vec<f64> = (0..200)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 5.0 + 10.0)
            .collect();
        let mut m = random_forest(5, 15, 6, 7);
        m.fit(&series).unwrap();
        let pred = m.predict_next(&series);
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 12.0).sin() * 5.0 + 10.0;
        assert!((pred - truth).abs() < 2.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn empty_fit_is_error() {
        let mut tree = TreeRegressor::new(3, 1);
        assert!(tree.fit(&[], &[]).is_err());
        let mut forest = RandomForestRegressor::new(5, 3, 1, 0);
        assert!(forest.fit(&[], &[]).is_err());
    }
}
