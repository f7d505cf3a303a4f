//! Real-world deployment workflow on your own data:
//!
//! 1. load a series from CSV (a sample file is written to a temp dir
//!    here so the example is self-contained — point `read_csv_file` at
//!    your own data),
//! 2. fit EA-DRL offline,
//! 3. save the trained policy to disk,
//! 4. restore it in a "fresh process" and forecast.
//!
//! ```text
//! cargo run --release --example custom_data
//! ```

use eadrl::core::{Combiner, EaDrl, EaDrlConfig, EaDrlPolicy, PolicySnapshot};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::timeseries::metrics::rmse;
use eadrl::timeseries::{read_csv_file, write_csv, Frequency};

fn main() {
    let dir = std::env::temp_dir();
    let data_path = dir.join("my_demand.csv");
    let policy_path = dir.join("my_policy.eadrl");

    // --- 0. Fabricate a CSV so the example runs stand-alone. With real
    //        data you would skip this and point at your file.
    {
        let demo = generate(DatasetId::WaterConsumption, 420, 7);
        let mut f = std::fs::File::create(&data_path).expect("create csv");
        write_csv(&mut f, &demo).expect("write csv");
    }

    // --- 1. Load: column 1 of `index,value` rows, daily cadence.
    let series = read_csv_file(&data_path, 1, Frequency::Daily).expect("read csv");
    println!("loaded {:?}: {} observations", series.name(), series.len());
    let (train, test) = series.split(0.75);

    // --- 2. Fit EA-DRL offline.
    let config = EaDrlConfig {
        episodes: 25,
        ..Default::default()
    };
    let mut model = EaDrl::new(quick_pool(5, 7, 7), config.clone());
    model.fit(train).expect("fit");
    println!("trained over {} models", model.n_models());

    // --- 3. Persist the learned policy. `EaDrl` owns an `EaDrlPolicy`;
    //        for deployment you snapshot the policy and keep the fitted
    //        pool (or refit it at the deployment site).
    let mut deploy_policy = EaDrlPolicy::new(config.clone());
    {
        // Rebuild the same training inputs the model used, purely to show
        // the snapshot workflow end-to-end at the policy level.
        let fit_len = (train.len() as f64 * 0.75).round() as usize;
        let (fit_part, warm_part) = train.split_at(fit_len);
        let mut pool = quick_pool(5, 7, 7);
        pool.retain_mut(|m| m.fit(fit_part).is_ok());
        let preds: Vec<Vec<f64>> = (0..warm_part.len())
            .map(|t| {
                let hist = &train[..fit_len + t];
                pool.iter().map(|m| m.predict_next(hist)).collect()
            })
            .collect();
        deploy_policy.warm_up(&preds, warm_part);
        let snapshot = deploy_policy.snapshot().expect("trained");
        let mut f = std::fs::File::create(&policy_path).expect("create policy file");
        snapshot.write(&mut f).expect("write policy");
        println!(
            "policy saved to {} ({} parameters)",
            policy_path.display(),
            snapshot.params.len()
        );
    }

    // --- 4. "Fresh process": restore and forecast online.
    let file = std::fs::File::open(&policy_path).expect("open policy file");
    let snapshot = PolicySnapshot::read(file).expect("parse policy");
    let mut restored = EaDrlPolicy::restore(config, &snapshot);
    let mut pool = quick_pool(5, 7, 7);
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    pool.retain_mut(|m| m.fit(&train[..fit_len]).is_ok());

    let mut history = train.to_vec();
    let mut forecasts = Vec::with_capacity(test.len());
    for &actual in test {
        let preds: Vec<f64> = pool.iter().map(|m| m.predict_next(&history)).collect();
        forecasts.push(restored.combine(&preds));
        restored.observe(&preds, actual);
        history.push(actual);
    }
    println!(
        "restored-policy rolling RMSE over {} test steps: {:.4}",
        test.len(),
        rmse(test, &forecasts)
    );

    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&policy_path);
}
