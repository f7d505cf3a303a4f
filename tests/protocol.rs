//! Integration of the evaluation protocol with the statistics harness:
//! run a miniature Table II and feed the results through the Bayesian
//! tests and rank machinery.

use eadrl::core::baselines::{MlPol, SlidingWindowEnsemble, StaticEnsemble};
use eadrl::core::{Combiner, EaDrlConfig, EaDrlPolicy, EvaluationProtocol};
use eadrl::datasets::{generate, DatasetId};
use eadrl::eval::{average_ranks, bayes_sign_test, correlated_t_test, pairwise_table};
use eadrl::models::{quick_pool, Naive};

fn mini_eval(id: DatasetId, seed: u64) -> eadrl::core::DatasetEvaluation {
    let series = generate(id, 340, seed);
    let config = EaDrlConfig {
        omega: 8,
        episodes: 10,
        restarts: 1,
        ..Default::default()
    };
    let combiners: Vec<Box<dyn Combiner>> = vec![
        Box::new(StaticEnsemble::new()),
        Box::new(SlidingWindowEnsemble::new(8)),
        Box::new(MlPol::new()),
        Box::new(EaDrlPolicy::new(config)),
    ];
    EvaluationProtocol.evaluate(
        series.name(),
        series.values(),
        quick_pool(5, 24, seed),
        vec![("Naive".into(), Box::new(Naive))],
        combiners,
    )
}

#[test]
fn mini_table2_pipeline_produces_consistent_statistics() {
    let ids = [
        DatasetId::WaterConsumption,
        DatasetId::BikeRentals,
        DatasetId::TaxiDemand1,
    ];
    let evals: Vec<_> = ids.iter().map(|&id| mini_eval(id, 7)).collect();

    // Every method present everywhere, with aligned prediction lengths.
    let names: Vec<String> = evals[0].results.iter().map(|r| r.name.clone()).collect();
    assert_eq!(names.len(), 5);
    for e in &evals {
        for n in &names {
            let r = e.result(n).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(r.predictions.len(), e.test_actuals.len());
        }
    }

    // Rank machinery: ranks per dataset must sum to m(m+1)/2.
    let scores: Vec<Vec<f64>> = evals
        .iter()
        .map(|e| names.iter().map(|n| e.result(n).unwrap().rmse).collect())
        .collect();
    let summary = average_ranks(&names, &scores);
    let total_mean: f64 = summary.iter().map(|s| s.mean).sum();
    let expect = (names.len() * (names.len() + 1)) as f64 / 2.0;
    assert!((total_mean - expect).abs() < 1e-9);

    // Pairwise table vs EA-DRL: wins + losses + draws == number of datasets.
    let actuals: Vec<Vec<f64>> = evals.iter().map(|e| e.test_actuals.clone()).collect();
    let reference: Vec<Vec<f64>> = evals
        .iter()
        .map(|e| e.result("EA-DRL").unwrap().predictions.clone())
        .collect();
    let baselines: Vec<(String, Vec<Vec<f64>>)> = names
        .iter()
        .filter(|n| n.as_str() != "EA-DRL")
        .map(|n| {
            (
                n.clone(),
                evals
                    .iter()
                    .map(|e| e.result(n).unwrap().predictions.clone())
                    .collect(),
            )
        })
        .collect();
    let rows = pairwise_table(&actuals, &reference, &baselines, 0.01, 0.95);
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert_eq!(row.wins + row.losses + row.draws, evals.len());
        assert!(row.significant_wins <= row.wins);
        assert!(row.significant_losses <= row.losses);
    }
}

#[test]
fn bayesian_tests_agree_on_a_dominated_method() {
    // EA-DRL predictions vs a deliberately awful "method" (constant 0):
    // both tests must call it for EA-DRL decisively.
    let eval = mini_eval(DatasetId::SolarRadiation, 21);
    let ea = &eval.result("EA-DRL").unwrap().predictions;
    let y = &eval.test_actuals;
    let diffs: Vec<f64> = (0..y.len())
        .map(|t| {
            let bad = 0.0 - y[t];
            let good = ea[t] - y[t];
            bad * bad - good * good
        })
        .collect();
    let t = correlated_t_test(&diffs, 0.01, 0.0);
    assert!(t.p_right > 0.95, "t-test not decisive: {t:?}");

    let per_dataset_diffs = vec![diffs.iter().sum::<f64>() / diffs.len() as f64; 10];
    let s = bayes_sign_test(&per_dataset_diffs, 0.0, 3000, 5);
    assert!(s.p_right > 0.95, "sign test not decisive: {s:?}");
}

#[test]
fn timings_are_recorded_per_method() {
    let eval = mini_eval(DatasetId::CloudCover, 3);
    for r in &eval.results {
        assert!(r.online_seconds >= 0.0);
        assert!(r.warmup_seconds >= 0.0);
    }
    // EA-DRL's warm-up (policy training) must dominate the others'.
    let ea = eval.result("EA-DRL").unwrap().warmup_seconds;
    let se = eval.result("SE").unwrap().warmup_seconds;
    assert!(ea > se, "EA-DRL warm-up {ea} should exceed SE's {se}");
}
