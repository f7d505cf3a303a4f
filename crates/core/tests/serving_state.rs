//! Differential suite for the serving states of ARIMA and ETS.
//!
//! `PoolGuard::sweep` serves ARIMA and the ETS kinds from per-member
//! states that fold in only the values a history adds. The [`oracle`]
//! module keeps the full-history forecast code those states replaced
//! (difference everything, re-filter the innovations from `t = 0`,
//! integrate back; rerun the smoothing from `t = 0`). Every test here
//! asserts that the served values equal the oracle bit for bit, on
//! growing histories, on sliding windows and on arbitrary switches
//! between the two.
//!
//! On a history slid by one value the guard folds each state's next
//! window ahead on its sidecar's helper thread where two cores are free.
//! These tests serve through `PoolGuard::new`, so they take that path at
//! two or more threads and the inline one at `EADRL_PAR_THREADS=1`; the
//! guard's unit tests pin the helper, free or held.

use eadrl_core::{EaDrl, EaDrlConfig, GuardConfig, PoolGuard};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::{
    auto_regressive, standard_pool, Arima, Ets, EtsKind, Forecaster, ModelError, Naive,
};

/// The full-history forecasts, as `predict_next` computed them before
/// the recursions moved into serving states.
mod oracle {
    use eadrl_models::{fallback_forecast, Arima, Ets, EtsKind};
    use eadrl_timeseries::transform::difference;

    /// ARIMA: difference `d` times, filter the innovations over the whole
    /// differenced history, predict, integrate back.
    pub fn arima(model: &Arima, history: &[f64]) -> f64 {
        let (p, d, q) = model.orders();
        let coef = model.coefficients();
        if history.len() < d + p.max(q) + 2 {
            return fallback_forecast(history);
        }
        let w = diff_all(history, d);
        if w.len() < p.max(1) {
            return fallback_forecast(history);
        }
        let e = filter_innovations(model, &w);
        let t = w.len();
        let mut pred = coef[0];
        for lag in 1..=p {
            if t >= lag {
                pred += coef[lag] * w[t - lag];
            }
        }
        for lag in 1..=q {
            if t >= lag {
                pred += coef[p + lag] * e[t - lag];
            }
        }
        let mut levels: Vec<f64> = Vec::with_capacity(d);
        let mut cur = history.to_vec();
        for _ in 0..d {
            let Some(&last) = cur.last() else { break };
            levels.push(last);
            cur = difference(&cur, 1);
        }
        let mut out = pred;
        for &lvl in levels.iter().rev() {
            out += lvl;
        }
        if out.is_finite() {
            out
        } else {
            fallback_forecast(history)
        }
    }

    fn diff_all(series: &[f64], d: usize) -> Vec<f64> {
        let mut w = series.to_vec();
        for _ in 0..d {
            w = difference(&w, 1);
        }
        w
    }

    fn filter_innovations(model: &Arima, w: &[f64]) -> Vec<f64> {
        let (p, _, q) = model.orders();
        let coef = model.coefficients();
        let cap = model.innovation_cap();
        let mut e = vec![0.0; w.len()];
        for t in p..w.len() {
            let mut pred = coef[0];
            for lag in 1..=p {
                pred += coef[lag] * w[t - lag];
            }
            for lag in 1..=q {
                if t >= lag {
                    pred += coef[p + lag] * e[t - lag];
                }
            }
            e[t] = (w[t] - pred).clamp(-cap, cap);
        }
        e
    }

    /// ETS: rerun the smoothing recursion over the whole history.
    pub fn ets(model: &Ets, history: &[f64]) -> f64 {
        if history.len() < 2 {
            return fallback_forecast(history);
        }
        let (alpha, beta, gamma) = model.params();
        let (forecast, _) = run(model.kind(), history, alpha, beta, gamma);
        if forecast.is_finite() {
            forecast
        } else {
            fallback_forecast(history)
        }
    }

    /// The one-step forecast after `series` and the one-step SSE over it.
    pub fn run(kind: EtsKind, series: &[f64], alpha: f64, beta: f64, gamma: f64) -> (f64, f64) {
        match kind {
            EtsKind::Simple => {
                let mut level = series[0];
                let mut sse = 0.0;
                for &x in &series[1..] {
                    let err = x - level;
                    sse += err * err;
                    level += alpha * err;
                }
                (level, sse)
            }
            EtsKind::Holt => {
                let mut level = series[0];
                let mut trend = if series.len() > 1 {
                    series[1] - series[0]
                } else {
                    0.0
                };
                let mut sse = 0.0;
                for &x in &series[1..] {
                    let forecast = level + trend;
                    let err = x - forecast;
                    sse += err * err;
                    let new_level = alpha * x + (1.0 - alpha) * (level + trend);
                    trend = beta * (new_level - level) + (1.0 - beta) * trend;
                    level = new_level;
                }
                (level + trend, sse)
            }
            EtsKind::HoltWinters { period } => {
                if series.len() < 2 * period {
                    return run(EtsKind::Holt, series, alpha, beta, 0.0);
                }
                let s1: f64 = series[..period].iter().sum::<f64>() / period as f64;
                let s2: f64 = series[period..2 * period].iter().sum::<f64>() / period as f64;
                let mut level = s1;
                let mut trend = (s2 - s1) / period as f64;
                let mut seasonal: Vec<f64> = series[..period].iter().map(|&x| x - s1).collect();
                let mut sse = 0.0;
                for (t, &x) in series.iter().enumerate().skip(period) {
                    let sidx = t % period;
                    let forecast = level + trend + seasonal[sidx];
                    let err = x - forecast;
                    sse += err * err;
                    let new_level = alpha * (x - seasonal[sidx]) + (1.0 - alpha) * (level + trend);
                    trend = beta * (new_level - level) + (1.0 - beta) * trend;
                    seasonal[sidx] = gamma * (x - new_level) + (1.0 - gamma) * seasonal[sidx];
                    level = new_level;
                }
                let next_sidx = series.len() % period;
                (level + trend + seasonal[next_sidx], sse)
            }
        }
    }
}

/// The oracle twin of a pool member, recognised by its name: a typed
/// ARIMA or ETS fitted on the same series, or `None` for members without
/// a serving state (their reference is their own `predict_next`).
#[derive(Debug, Clone)]
enum Twin {
    Arima(Arima),
    Ets(Ets),
}

impl Twin {
    fn of(name: &str) -> Option<Twin> {
        if let Some(orders) = name
            .strip_prefix("ARIMA(")
            .and_then(|s| s.strip_suffix(')'))
        {
            let o: Vec<usize> = orders.split(',').map(|v| v.parse().unwrap()).collect();
            return Some(Twin::Arima(Arima::new(o[0], o[1], o[2])));
        }
        let kind = match name {
            "ETS(SES)" => EtsKind::Simple,
            "ETS(Holt)" => EtsKind::Holt,
            _ => {
                let period = name.strip_prefix("ETS(HW,")?.strip_suffix(')')?;
                EtsKind::HoltWinters {
                    period: period.parse().unwrap(),
                }
            }
        };
        Some(Twin::Ets(Ets::new(kind)))
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        match self {
            Twin::Arima(m) => m.fit(series),
            Twin::Ets(m) => m.fit(series),
        }
    }

    fn forecast(&self, history: &[f64]) -> f64 {
        match self {
            Twin::Arima(m) => oracle::arima(m, history),
            Twin::Ets(m) => oracle::ets(m, history),
        }
    }
}

/// A fitted pool with an oracle twin per stateful member.
struct Fitted {
    pool: Vec<Box<dyn Forecaster>>,
    twins: Vec<Option<Twin>>,
}

impl Fitted {
    fn new(mut pool: Vec<Box<dyn Forecaster>>, train: &[f64]) -> Fitted {
        let mut twins = Vec::with_capacity(pool.len());
        for model in &mut pool {
            model.fit(train).unwrap();
            let mut twin = Twin::of(model.name());
            if let Some(twin) = twin.as_mut() {
                twin.fit(train).unwrap();
            }
            twins.push(twin);
        }
        Fitted { pool, twins }
    }

    fn stateful(&self) -> usize {
        self.twins.iter().filter(|t| t.is_some()).count()
    }

    /// Sweeps `guard` over every history and checks each member's value
    /// against its reference, bit for bit.
    fn assert_matches<'a>(
        &self,
        guard: &mut PoolGuard,
        histories: impl IntoIterator<Item = &'a [f64]>,
    ) {
        for history in histories {
            let sweep = guard.sweep(&self.pool, history);
            assert!(sweep.all_active, "no member may fault");
            for (i, (model, twin)) in self.pool.iter().zip(&self.twins).enumerate() {
                let expected = match twin {
                    Some(twin) => twin.forecast(history),
                    None => model.predict_next(history),
                };
                assert_eq!(
                    sweep.values[i].to_bits(),
                    expected.to_bits(),
                    "{} over {} values: served {} vs oracle {}",
                    model.name(),
                    history.len(),
                    sweep.values[i],
                    expected
                );
            }
        }
    }
}

fn series(n: usize, seed: u64) -> Vec<f64> {
    generate(DatasetId::BikeRentals, n, seed).values().to_vec()
}

/// The pool's stateful members: its five ARIMAs and three ETS kinds.
fn stateful_members(seed: u64) -> Vec<Box<dyn Forecaster>> {
    standard_pool(5, 24, seed)
        .into_iter()
        .filter(|m| Twin::of(m.name()).is_some())
        .collect()
}

#[test]
fn every_standard_pool_member_matches_the_oracle_at_two_seeds() {
    for seed in [42, 7] {
        let values = series(900, seed);
        let fitted = Fitted::new(standard_pool(5, 24, seed), &values[..240]);
        assert_eq!(fitted.pool.len(), 43);
        assert_eq!(fitted.stateful(), 8, "five ARIMAs and three ETS kinds");
        let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
        // Grow, then slide, then grow from a fresh prefix again.
        fitted.assert_matches(&mut guard, (240..300).map(|end| &values[..end]));
        fitted.assert_matches(&mut guard, (300..340).map(|end| &values[end - 128..end]));
        fitted.assert_matches(&mut guard, (600..640).map(|end| &values[..end]));
    }
}

#[test]
fn a_history_growing_from_one_to_three_thousand_values_matches() {
    let values = series(3000, 42);
    let fitted = Fitted::new(stateful_members(42), &values[..360]);
    let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
    fitted.assert_matches(&mut guard, (1..=3000).map(|end| &values[..end]));
}

#[test]
fn sliding_windows_of_512_values_match() {
    let values = series(2000, 7);
    let fitted = Fitted::new(stateful_members(7), &values[..360]);
    let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
    fitted.assert_matches(&mut guard, (512..2000).map(|end| &values[end - 512..end]));
}

#[test]
fn arima_orders_outside_the_pool_match() {
    let values = series(2500, 42);
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Arima::new(0, 1, 2)),
        Box::new(Arima::new(3, 2, 2)),
        Box::new(Arima::new(1, 2, 0)),
        Box::new(Naive),
    ];
    let fitted = Fitted::new(pool, &values[..360]);
    assert_eq!(fitted.stateful(), 3);
    let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
    fitted.assert_matches(&mut guard, (1..1500).map(|end| &values[..end]));
    fitted.assert_matches(&mut guard, (1500..2500).map(|end| &values[end - 512..end]));
    // A long growing run refills the lag buffers several times.
    fitted.assert_matches(&mut guard, (2000..=2500).map(|end| &values[..end]));
}

#[test]
fn holt_winters_on_fewer_than_two_seasons_matches() {
    let values = series(400, 42);
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Ets::new(EtsKind::HoltWinters { period: 24 })),
        Box::new(Ets::new(EtsKind::HoltWinters { period: 7 })),
    ];
    let fitted = Fitted::new(pool, &values[..200]);
    let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
    // Growing across the two-season mark, one value at a time.
    fitted.assert_matches(&mut guard, (1..=120).map(|end| &values[..end]));
    // Windows shorter than two seasons forecast as Holt on every step.
    fitted.assert_matches(&mut guard, (200..260).map(|end| &values[end - 30..end]));
    // A fresh history that jumps past two seasons in one fold.
    fitted.assert_matches(&mut guard, [&values[..10], &values[..200], &values[..201]]);
}

#[test]
fn predict_next_folds_a_fresh_state_equal_to_the_oracle() {
    let values = series(700, 7);
    let fitted = Fitted::new(stateful_members(7), &values[..360]);
    for end in [1, 2, 3, 20, 47, 48, 49, 360, 699] {
        for (model, twin) in fitted.pool.iter().zip(&fitted.twins) {
            let twin = twin.as_ref().unwrap();
            let history = &values[..end];
            assert_eq!(
                model.predict_next(history).to_bits(),
                twin.forecast(history).to_bits(),
                "{} over {end} values",
                model.name()
            );
        }
    }
}

#[test]
fn ets_fit_selects_the_oracle_parameters() {
    let values = series(400, 42);
    let train = &values[..360];
    for kind in [
        EtsKind::Simple,
        EtsKind::Holt,
        EtsKind::HoltWinters { period: 24 },
    ] {
        let mut model = Ets::new(kind);
        model.fit(train).unwrap();
        // The grid search of `Ets::fit`, scored by the oracle's SSE.
        let grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
        let beta_grid: &[f64] = match kind {
            EtsKind::Simple => &[0.0],
            _ => &[0.01, 0.05, 0.1, 0.3],
        };
        let gamma_grid: &[f64] = match kind {
            EtsKind::HoltWinters { .. } => &[0.05, 0.1, 0.3],
            _ => &[0.0],
        };
        let mut best = (f64::INFINITY, 0.3, 0.1, 0.1);
        for &a in &grid {
            for &b in beta_grid {
                for &g in gamma_grid {
                    let (_, sse) = oracle::run(kind, train, a, b, g);
                    if sse < best.0 {
                        best = (sse, a, b, g);
                    }
                }
            }
        }
        assert_eq!(model.params(), (best.1, best.2, best.3), "{kind:?}");
    }
}

/// A pool member that forecasts through the oracle: no serving state, so
/// the guard calls it per step with the whole history.
#[derive(Debug, Clone)]
struct OracleMember {
    name: String,
    twin: Twin,
}

impl Forecaster for OracleMember {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        self.twin.fit(series)
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        self.twin.forecast(history)
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[test]
fn recursive_eadrl_forecast_matches_an_oracle_pool() {
    let values = series(700, 42);
    let members = || {
        let mut pool = stateful_members(42);
        pool.push(Box::new(auto_regressive(5, 1e-3)));
        pool
    };
    let oracle_pool: Vec<Box<dyn Forecaster>> = members()
        .into_iter()
        .map(|m| match Twin::of(m.name()) {
            Some(twin) => Box::new(OracleMember {
                name: m.name().to_string(),
                twin,
            }) as Box<dyn Forecaster>,
            None => m,
        })
        .collect();
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 4,
        restarts: 1,
        ..EaDrlConfig::default()
    };
    config.ddpg.seed = 11;
    let mut served = EaDrl::new(members(), config.clone());
    let mut reference = EaDrl::new(oracle_pool, config);
    served.fit(&values[..400]).unwrap();
    reference.fit(&values[..400]).unwrap();
    let a = served.forecast(&values[..600], 24);
    let b = reference.forecast(&values[..600], 24);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b));
    // One-step serving over the revealed values continues in lockstep.
    for end in 600..700 {
        let h = &values[..end];
        assert_eq!(
            served.predict_next(h).to_bits(),
            reference.predict_next(h).to_bits()
        );
    }
}

/// The trailing `len` values before `end`.
fn window(values: &[f64], end: usize, len: usize) -> &[f64] {
    &values[end - len..end]
}

/// The trailing `len` values before each of `ends`.
fn slides<'a>(
    values: &'a [f64],
    ends: impl IntoIterator<Item = usize> + 'a,
    len: usize,
) -> impl Iterator<Item = &'a [f64]> + 'a {
    ends.into_iter().map(move |end| window(values, end, len))
}

#[test]
fn switches_between_slides_and_other_histories_match() {
    let values = series(1400, 42);
    let fitted = Fitted::new(stateful_members(42), &values[..360]);
    let mut guard = PoolGuard::new(GuardConfig::default(), fitted.pool.len());
    let v = values.as_slice();
    fitted.assert_matches(&mut guard, slides(v, 600..620, 512));
    // Extended by one value, then sliding at the new length.
    fitted.assert_matches(&mut guard, [window(v, 620, 513)]);
    fitted.assert_matches(&mut guard, slides(v, 621..640, 513));
    // Slid by two values at a time, then by one again.
    fitted.assert_matches(&mut guard, slides(v, (641..660).step_by(2), 513));
    fitted.assert_matches(&mut guard, slides(v, 660..680, 513));
    // An earlier value rewritten, then sliding again.
    let mut rewritten = window(v, 680, 513).to_vec();
    rewritten[200] += 1.0;
    fitted.assert_matches(&mut guard, [rewritten.as_slice()]);
    fitted.assert_matches(&mut guard, slides(v, 681..700, 513));
    // A 0.0 slid to a -0.0, which `==` would call one slide.
    let mut zero = window(v, 700, 513).to_vec();
    zero[101] = 0.0;
    let mut negative = zero[1..].to_vec();
    negative.push(v[700]);
    negative[100] = -0.0;
    fitted.assert_matches(&mut guard, [zero.as_slice(), negative.as_slice()]);
    // A shorter input, then sliding at that length.
    fitted.assert_matches(&mut guard, slides(v, 720..760, 300));
    // The same window twice folds nothing new.
    fitted.assert_matches(&mut guard, [window(v, 760, 300); 2]);
    fitted.assert_matches(&mut guard, slides(v, 761..780, 300));
}
