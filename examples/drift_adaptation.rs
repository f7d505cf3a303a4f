//! Drift adaptation: watch how EA-DRL's weights and the drift-aware DEMSC
//! baseline react when the identity of the best base model flips mid-
//! stream, and how a drift detector sees the ensemble's error stream.
//!
//! ```text
//! cargo run --release --example drift_adaptation
//! ```

use eadrl::core::baselines::Demsc;
use eadrl::core::{weight_churn, Combiner, EaDrlConfig, EaDrlPolicy};
use eadrl::timeseries::drift::PageHinkley;
use eadrl::timeseries::metrics::rmse;

/// Synthetic three-model stream: model 0 is accurate in the first regime,
/// model 1 in the second, model 2 never.
fn stream(n: usize, flip_at: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let actuals: Vec<f64> = (0..n)
        .map(|t| (t as f64 / 7.0).sin() * 3.0 + 12.0)
        .collect();
    let preds = actuals
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let wiggle = ((t * 11) % 17) as f64 / 17.0 - 0.5;
            if t < flip_at {
                vec![a + 0.1 * wiggle, a + 2.0 + wiggle, a - 6.0]
            } else {
                vec![a + 2.0 - wiggle, a + 0.1 * wiggle, a - 6.0]
            }
        })
        .collect();
    (preds, actuals)
}

fn main() {
    let (preds, actuals) = stream(300, 200);
    let (warm_p, online_p) = preds.split_at(100);
    let (warm_a, online_a) = actuals.split_at(100);

    // EA-DRL: policy frozen after warm-up (the paper's offline design).
    let config = EaDrlConfig {
        episodes: 25,
        ..Default::default()
    };
    let mut eadrl = EaDrlPolicy::new(config);
    eadrl.warm_up(warm_p, warm_a);

    // DEMSC: drift-aware committee re-selection online.
    let mut demsc = Demsc::new(10, 0.5, 2, 42);
    demsc.warm_up(warm_p, warm_a);

    // A Page–Hinkley detector watching EA-DRL's own error stream — the
    // paper's suggested future-work hook for informed policy refresh.
    let mut detector = PageHinkley::new(0.05, 6.0);

    let mut ea_out = Vec::new();
    let mut de_out = Vec::new();
    let mut ea_trace = Vec::new();
    let mut de_trace = Vec::new();
    println!("step  EA-DRL weights (m0/m1/m2)      DEMSC weights (m0/m1/m2)");
    for (t, (p, &a)) in online_p.iter().zip(online_a.iter()).enumerate() {
        let we = eadrl.weights(3);
        let wd = demsc.weights(3);
        ea_trace.push(we.clone());
        de_trace.push(wd.clone());
        if t % 40 == 0 {
            println!(
                "{t:>4}  {:.2} / {:.2} / {:.2}              {:.2} / {:.2} / {:.2}",
                we[0], we[1], we[2], wd[0], wd[1], wd[2]
            );
        }
        let fe = eadrl.combine(p);
        let fd = demsc.combine(p);
        ea_out.push(fe);
        de_out.push(fd);
        eadrl.observe(p, a);
        demsc.observe(p, a);
        if detector.update((fe - a).abs()) {
            println!("{t:>4}  ^ Page-Hinkley flags drift in EA-DRL's error stream here");
        }
    }

    // The regime flips at online step 100 (absolute 200).
    let (ea_pre, ea_post) = ea_out.split_at(100);
    let (de_pre, de_post) = de_out.split_at(100);
    let (a_pre, a_post) = online_a.split_at(100);
    println!("\n            pre-drift RMSE   post-drift RMSE");
    println!(
        "EA-DRL      {:>12.3}   {:>14.3}   (frozen policy)",
        rmse(a_pre, ea_pre),
        rmse(a_post, ea_post)
    );
    println!(
        "DEMSC       {:>12.3}   {:>14.3}   ({} committee re-selections)",
        rmse(a_pre, de_pre),
        rmse(a_post, de_post),
        demsc.reselections()
    );
    println!(
        "\nweight churn (mean L1 movement per step): EA-DRL {:.4}, DEMSC {:.4}",
        weight_churn(&ea_trace),
        weight_churn(&de_trace)
    );
    println!(
        "\nThe paper's future-work direction — periodic or drift-triggered\n\
         policy refresh — is exactly the hook the Page-Hinkley signal above\n\
         would drive."
    );
}
