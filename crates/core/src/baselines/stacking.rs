//! Stacking (Wolpert) with a random-forest meta-learner.

use crate::combiner::Combiner;
use eadrl_models::tree::RandomForestRegressor;
use eadrl_models::TabularModel;

/// **Stacking** — learns a non-linear map from the base models' prediction
/// vector to the target, using a random forest as the meta-learner (the
/// paper's configuration). The meta-learner is fitted once on the warm-up
/// (validation) predictions and applied statically online, as in classical
/// stacked generalization.
#[derive(Debug, Clone)]
pub struct Stacking {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    forest: Option<RandomForestRegressor>,
}

impl Stacking {
    /// Creates a stacking combiner with a forest of `n_trees` trees.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        Stacking {
            n_trees: n_trees.max(1),
            max_depth: max_depth.max(1),
            seed,
            forest: None,
        }
    }
}

impl Combiner for Stacking {
    fn name(&self) -> &str {
        "Stacking"
    }

    fn warm_up(&mut self, preds: &[Vec<f64>], actuals: &[f64]) {
        if preds.len() < 4 {
            return; // Too little meta-training data; fall back to mean.
        }
        let mut forest = RandomForestRegressor::new(self.n_trees, self.max_depth, 2, self.seed);
        if forest.fit(preds, actuals).is_ok() {
            self.forest = Some(forest);
        }
    }

    fn weights(&mut self, m: usize) -> Vec<f64> {
        // Stacking has no linear weights; report uniform for introspection.
        vec![1.0 / m.max(1) as f64; m]
    }

    /// The forest's prediction from the raw model forecasts; the reported
    /// weights take no part.
    fn combine_with(&self, _weights: &[f64], preds: &[f64]) -> f64 {
        match &self.forest {
            Some(forest) => forest.predict(preds),
            None => preds.iter().sum::<f64>() / preds.len().max(1) as f64,
        }
    }

    fn observe(&mut self, _preds: &[f64], _actual: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_to_trust_the_reliable_model() {
        // Model 0 = truth, model 1 = pure noise-ish offset.
        let preds: Vec<Vec<f64>> = (0..80)
            .map(|t| {
                let y = (t as f64 / 7.0).sin() * 5.0;
                vec![y, y + ((t * 13) % 7) as f64 - 3.0]
            })
            .collect();
        let actuals: Vec<f64> = (0..80).map(|t| (t as f64 / 7.0).sin() * 5.0).collect();
        let mut st = Stacking::new(25, 8, 1);
        st.warm_up(&preds, &actuals);
        assert!(st.forest.is_some());
        // On fresh inputs where the models disagree, output should track
        // model 0 much more closely than the mean would.
        let out = st.combine(&[2.0, 6.0]);
        assert!((out - 2.0).abs() < 1.5, "out = {out}");
    }

    #[test]
    fn without_warm_up_falls_back_to_mean() {
        let mut st = Stacking::new(10, 4, 0);
        assert!(st.forest.is_none());
        assert_eq!(st.combine(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn tiny_warm_up_is_ignored() {
        let mut st = Stacking::new(10, 4, 0);
        st.warm_up(&[vec![1.0]], &[1.0]);
        assert!(st.forest.is_none());
    }

    #[test]
    fn fit_is_seed_deterministic() {
        let preds: Vec<Vec<f64>> = (0..40)
            .map(|t| vec![t as f64, (t * t) as f64 * 0.01])
            .collect();
        let actuals: Vec<f64> = (0..40).map(|t| t as f64 + 1.0).collect();
        let mut a = Stacking::new(15, 6, 9);
        let mut b = Stacking::new(15, 6, 9);
        a.warm_up(&preds, &actuals);
        b.warm_up(&preds, &actuals);
        assert_eq!(a.combine(&[7.0, 0.5]), b.combine(&[7.0, 0.5]));
    }

    #[test]
    fn weights_are_reported_uniform() {
        let mut st = Stacking::new(10, 4, 0);
        assert_eq!(st.weights(4), vec![0.25; 4]);
    }
}
