//! Tests of the benchmark's own machinery: the trace shim is transparent,
//! the refresh pipeline serves what `EaDrl` serves, inputs and faults are
//! functions of the seed, and the emitted metrics match `BENCHMARK.json`.

use crate::faults::{self, Fault, FaultPlan, InjectedPanic};
use crate::layers::{family_slot, Metric, Recorder, Timed, Tracer, FAMILIES};
use crate::serve::{digest, serve, Pass, FLOOD, REFERENCE_PROBE_US};
use crate::workload::{self, Data, Kind, RefreshServer, Server, Workload, WORKLOADS};
use crate::{end_to_end, parse_args, result_line, Report};
use eadrl_core::{EaDrl, EaDrlConfig, GuardConfig, PoolGuard, RefreshTrigger};
use eadrl_models::{
    decision_tree, gradient_boosting, lstm_forecaster, Arima, Ets, EtsKind, Forecaster, ModelError,
    PredictError,
};
use eadrl_obs::json::JsonValue;
use eadrl_obs::{Event, ObsConfig, RingSink, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A small pool whose members all belong to named families.
fn small_pool(seed: u64) -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(Arima::new(1, 0, 0)),
        Box::new(Ets::new(EtsKind::HoltWinters { period: 24 })),
        Box::new(gradient_boosting(5, 20, 2, 0.1)),
        Box::new(decision_tree(5, 6, 3)),
        Box::new(lstm_forecaster(5, 4, 3, seed ^ 0x3)),
    ]
}

fn quick_config(seed: u64) -> EaDrlConfig {
    let mut config = EaDrlConfig {
        episodes: 4,
        restarts: 1,
        max_iter: 30,
        ..EaDrlConfig::default()
    };
    config.ddpg.seed = seed;
    config
}

fn set_up(
    kind: Kind,
    data: &Data,
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
) -> (Server, FaultPlan) {
    workload::set_up(kind, small_pool(seed), quick_config(seed), data, recorder)
        .expect("small pool fits")
}

fn traced_run(kind: Kind, data: &Data, seed: u64) -> (Tracer, Pass, Vec<Metric>) {
    let recorder = Arc::new(Recorder::default());
    let mut tracer = Tracer::new(Arc::clone(&recorder));
    let begin = Instant::now();
    let (mut server, plan) = set_up(kind, data, seed, Some(&recorder));
    tracer.after_setup(begin, Instant::now());
    plan.arm();
    let pass = serve(&mut server, data, FLOOD, Some(&mut tracer));
    let layers = tracer.layers(&pass, &server, &plan, 1.0);
    (tracer, pass, layers)
}

fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn timed_members_forecast_bitwise_like_plain_ones() {
    let data = Data::generate(Kind::Window, 3, 60);
    let (mut plain, _) = set_up(Kind::Window, &data, 3, None);
    let recorder = Arc::new(Recorder::default());
    let (mut timed, _) = set_up(Kind::Window, &data, 3, Some(&recorder));
    let a = serve(&mut plain, &data, FLOOD, None);
    let b = serve(&mut timed, &data, FLOOD, None);
    assert_eq!(digest(&a.forecasts), digest(&b.forecasts));
    let mut calls = Vec::new();
    recorder.drain_into(&mut calls);
    let fits = calls.iter().filter(|c| c.fit).count();
    assert_eq!(fits, 5);
    // 120 validation steps during set-up, then one call per served step.
    assert_eq!(calls.len() - fits, 5 * (120 + 60));
}

/// Overrides every forwarded method with a recognisable answer.
struct Double;

impl Forecaster for Double {
    fn name(&self) -> &str {
        "DT-double"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
        Ok(())
    }
    fn predict_next(&self, history: &[f64]) -> f64 {
        if history.len() == 13 {
            std::panic::panic_any(InjectedPanic);
        }
        1.0
    }
    fn try_predict_next(&self, _history: &[f64]) -> Result<f64, PredictError> {
        Err(PredictError::BudgetExceeded {
            cost_us: 9,
            budget_us: 3,
        })
    }
    fn cost_hint_us(&self) -> Option<u64> {
        Some(77)
    }
    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(Double)
    }
}

#[test]
fn timed_forwards_every_method_and_times_panicking_calls() {
    faults::install_quiet_hook();
    let recorder = Arc::new(Recorder::default());
    let timed = Timed::wrap_pool(vec![Box::new(Double)], &recorder).remove(0);
    assert_eq!(timed.name(), "DT-double");
    assert_eq!(timed.cost_hint_us(), Some(77));
    assert_eq!(
        timed.try_predict_next(&[1.0]),
        Err(PredictError::BudgetExceeded {
            cost_us: 9,
            budget_us: 3
        })
    );
    let clone = timed.box_clone();
    assert_eq!(clone.predict_next(&[1.0]), 1.0);
    let payload = catch_unwind(AssertUnwindSafe(|| clone.predict_next(&[0.0; 13])))
        .expect_err("the double panics on 13 values");
    assert!(faults::is_injected(payload.as_ref()));
    let mut calls = Vec::new();
    recorder.drain_into(&mut calls);
    assert_eq!(
        calls.len(),
        3,
        "the clone records, and so does the panicking call"
    );
    assert!(calls.iter().all(|c| !c.fit && c.slot == family_slot("DT")));
}

#[test]
fn layer_self_times_add_up_to_the_step_total() {
    let data = Data::generate(Kind::Window, 5, 300);
    let (tracer, pass, layers) = traced_run(Kind::Window, &data, 5);
    let members: f64 = FAMILIES
        .iter()
        .map(|(_, f)| metric(&layers, &format!("models.{f}.predict_us")))
        .sum();
    let parts = members + metric(&layers, "core.serve.self_us");
    let step_mean = pass.service_us.iter().sum::<f64>() / pass.service_us.len() as f64;
    assert!(
        (parts - step_mean).abs() <= 0.01 * step_mean,
        "layers {parts} µs vs step {step_mean} µs"
    );

    // In the JSONL trace, member spans nest inside their step span: the
    // step's self time (step minus children, clamped at zero as a
    // profiler does) plus the children gives back the step total.
    let duration = |e: &Event| match e.get("duration_us") {
        Some(Value::F64(v)) => *v,
        Some(Value::U64(v)) => *v as f64,
        other => panic!("span without a duration: {other:?}"),
    };
    let (mut steps, mut rebuilt, mut children) = (0.0, 0.0, 0.0);
    let mut sampled = 0;
    for line in tracer.jsonl().lines() {
        let event = Event::from_json_line(line).expect("valid JSONL");
        if event.name == "core.serve.step" {
            let total = duration(&event);
            steps += total;
            rebuilt += (total - children).max(0.0) + children;
            children = 0.0;
            sampled += 1;
        } else if event.name.starts_with("core.serve.step/") {
            children += duration(&event);
        }
    }
    assert_eq!(sampled, 3, "steps 0, 100 and 200 are sampled");
    assert!(
        (rebuilt - steps).abs() <= 0.01 * steps,
        "{rebuilt} vs {steps}"
    );
}

#[test]
fn refresh_pipeline_without_refresh_is_eadrl_predict_next_bitwise() {
    let data = Data::generate(Kind::Growing, 11, 80);
    let mut model = EaDrl::new(small_pool(11), quick_config(11));
    model.fit(data.train()).expect("fits");
    let mut pipeline = RefreshServer::fit(
        small_pool(11),
        quick_config(11),
        RefreshTrigger::Never,
        data.train(),
    )
    .expect("fits");
    for i in 0..data.steps {
        let history = data.history(i);
        assert_eq!(
            model.predict_next(history).to_bits(),
            pipeline.step(history).to_bits(),
            "step {i}"
        );
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in WORKLOADS {
        let a = Data::generate(w.kind, 5, 2000);
        assert_eq!(a, Data::generate(w.kind, 5, 2000), "{}", w.name);
        assert_ne!(
            a.values,
            Data::generate(w.kind, 6, 2000).values,
            "{}",
            w.name
        );
    }
    // Drift shifts on steps 190..440, 690..940, …, 60 steps before every
    // other refresh; values are non-negative, so a shifted value never
    // equals the raw one.
    let raw = Data::generate(Kind::Window, 5, 1000);
    let drift = Data::generate(Kind::Drift, 5, 1000);
    assert_eq!(drift.train(), raw.train());
    assert_eq!((raw.block, drift.block), (1000, 250));
    for i in 0..1000 {
        let shifted = (190..440).contains(&i) || (690..940).contains(&i);
        assert_eq!(workload::shifted(i), shifted, "step {i}");
        assert_eq!(
            drift.actual(i).to_bits() != raw.actual(i).to_bits(),
            shifted,
            "step {i}"
        );
    }
}

/// A healthy member for fault-schedule tests.
#[derive(Clone)]
struct Last;

impl Forecaster for Last {
    fn name(&self) -> &str {
        "Last"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
        Ok(())
    }
    fn predict_next(&self, history: &[f64]) -> f64 {
        history.last().copied().unwrap_or(0.0)
    }
    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Quarantine transitions `(step, quarantined set)` of an 8-member pool
/// under the `serve_faults` plan, plus the faults injected.
fn quarantine_log(seed: u64, steps: usize) -> (Vec<(usize, Vec<usize>)>, u64) {
    let pool: Vec<Box<dyn Forecaster>> = (0..8).map(|_| Box::new(Last) as _).collect();
    let (pool, plan) = FaultPlan::wrap(pool, &faults::plan(seed, 8, steps));
    plan.arm();
    let mut guard = PoolGuard::new(GuardConfig::default(), 8);
    let mut log = Vec::new();
    let mut last = Vec::new();
    for step in 0..steps {
        guard.sweep(&pool, &[1.0, 2.0]);
        let now = guard.quarantined();
        if now != last {
            log.push((step, now.clone()));
            last = now;
        }
    }
    (log, plan.injected())
}

#[test]
fn fault_schedule_and_quarantine_transitions_repeat_per_seed() {
    let fires = |seed: u64| -> Vec<Vec<bool>> {
        faults::plan(seed, 43, 2000)
            .iter()
            .map(|(_, f)| (0..2000).map(|c| f.fires(c)).collect())
            .collect()
    };
    assert_eq!(fires(5), fires(5));
    assert_ne!(fires(5), fires(6));
    let nan_share = fires(5)[0].iter().filter(|&&f| f).count() as f64 / 2000.0;
    assert!(
        (nan_share - 1.0 / 7.0).abs() < 0.03,
        "NaN share {nan_share}"
    );

    let (log, injected) = quarantine_log(5, 2000);
    assert_eq!((log.clone(), injected), quarantine_log(5, 2000));
    assert_ne!(log, quarantine_log(6, 2000).0);
    // Members 2 (NaN), 4 (bursts) and 6 (dies at step 1000) of 8.
    let (mut enters, mut exits) = (0, 0);
    let mut before: &[usize] = &[];
    for (_, now) in &log {
        enters += usize::from(!before.contains(&4) && now.contains(&4));
        exits += usize::from(before.contains(&4) && !now.contains(&4));
        before = now;
    }
    assert_eq!(enters, 4, "one quarantine per 5-call burst in 2000 calls");
    assert!(exits >= 3, "the burst member re-enters after each burst");
    let (_, end) = log.last().expect("transitions happened");
    assert!(end.contains(&6), "the dead member stays quarantined");
    assert_eq!(
        faults::plan(5, 8, 2000)[2].1,
        Fault::DiesAt { at: 1000 },
        "the third member dies halfway"
    );
}

#[test]
fn serve_faults_sets_up_exactly_like_serve_w512() {
    let data = Data::generate(Kind::Faults, 9, 40);
    assert_eq!(data, Data::generate(Kind::Window, 9, 40));
    let (mut clean, _) = set_up(Kind::Window, &data, 9, None);
    let (mut faulty, plan) = set_up(Kind::Faults, &data, 9, None);
    assert_eq!(digest(&clean.weights()), digest(&faulty.weights()));
    for i in 0..5 {
        let history = data.history(i);
        assert_eq!(
            clean.step(history).to_bits(),
            faulty.step(history).to_bits()
        );
    }
    assert_eq!(plan.injected(), 0, "faults stay disarmed until armed");
    plan.arm();
    let pass = serve(&mut faulty, &data, FLOOD, None);
    let seen = faulty.guard_faults();
    assert!(
        plan.injected() >= 20,
        "the dying member alone faults 20 times"
    );
    assert_eq!(seen, plan.injected(), "the guard sees every injected fault");
    assert_eq!(pass.failed, 0, "the guard keeps every forecast finite");
}

#[test]
fn quiet_hook_only_swallows_injected_panics() {
    assert!(faults::is_injected(&InjectedPanic));
    assert!(!faults::is_injected(&"index out of bounds"));
    assert!(!faults::is_injected(&String::from("boom")));
    let (pool, plan) = FaultPlan::wrap(vec![Box::new(Last)], &[(0, Fault::DiesAt { at: 0 })]);
    plan.arm();
    let payload = catch_unwind(AssertUnwindSafe(|| pool[0].predict_next(&[1.0])))
        .expect_err("a dead member panics");
    assert!(faults::is_injected(payload.as_ref()));
}

/// The repository root: the nearest directory above this package that
/// holds `BENCHMARK.json`.
fn repo_root() -> &'static Path {
    let mut dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("BENCHMARK.json").is_file() {
        dir = dir.parent().expect("BENCHMARK.json above the package");
    }
    dir
}

fn benchmark_json() -> JsonValue {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json reads");
    eadrl_obs::json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `[profile.*]` sections of a manifest, comments and blank lines
/// dropped.
fn profiles(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest reads");
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line.starts_with("[profile.");
        }
        if inside && !line.is_empty() && !line.starts_with('#') {
            out.push(line.to_string());
        }
    }
    out
}

#[test]
fn build_profiles_match_the_repository() {
    // Built as `eadrl-bench`'s binary, the manifest directory is
    // `crates/bench`, so the benchmark's manifest is found from the root.
    let ours = profiles(&repo_root().join("crates/bench/src/bin/serve_bench/Cargo.toml"));
    let root = profiles(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "the repository declares its profiles");
    assert_eq!(ours, root);
}

fn declared(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect();
    out.sort();
    out
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);

    let data = Data::generate(Kind::Window, 2, 30);
    let (mut server, _) = set_up(Kind::Window, &data, 2, None);
    let pass = serve(&mut server, &data, FLOOD, None);
    let e2e = end_to_end(1.0, &pass, 1.0, 1.0);
    let (_, _, layers) = traced_run(Kind::Window, &data, 2);
    assert_eq!(emitted(&e2e), declared(&spec, "end_to_end"));
    assert_eq!(emitted(&layers), declared(&spec, "per_layer"));
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    let unit_ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    for m in e2e.iter().chain(&layers) {
        assert!(valid_name(&m.name), "bad name {}", m.name);
        assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
    }

    // The result line is one object with exactly these four keys.
    let report = Report {
        correct: true,
        attempted: pass.latency_us.len(),
        failed: pass.failed,
        metrics: e2e,
        context: Vec::new(),
    };
    let line = eadrl_obs::json::parse(&result_line(&report)).expect("result line parses");
    let keys: Vec<&str> = line.as_map().expect("object").into_keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
}

#[test]
fn telemetry_settings_leave_forecasts_unchanged() {
    let data = Data::generate(Kind::Window, 4, 30);
    let forecasts = || {
        let (mut server, _) = set_up(Kind::Window, &data, 4, None);
        digest(&serve(&mut server, &data, FLOOD, None).forecasts)
    };
    // What `EADRL_OBS=jsonl` selects, captured in memory instead of on
    // stderr.
    let jsonl = ObsConfig::parse("jsonl").expect("valid spec");
    eadrl_obs::set_sink(Arc::new(RingSink::new(1 << 16)));
    eadrl_obs::set_level(jsonl.level);
    let with_telemetry = forecasts();
    // `main` switches telemetry off before anything else.
    eadrl_obs::init(&ObsConfig::off());
    assert!(eadrl_obs::level().is_none());
    assert_eq!(with_telemetry, forecasts());
}

#[test]
fn command_line_accepts_the_documented_flags() {
    let args = |line: &str| parse_args(line.split_whitespace().map(String::from));
    let parsed = args("--workload drift_refresh --seed 7 --seconds 16 --trace 1").expect("valid");
    assert_eq!(parsed.workloads, vec![WORKLOADS[3]]);
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 16.0, true));
    assert_eq!(args("").expect("defaults").workloads, WORKLOADS.to_vec());
    for all in ["--workload all --trace 0", "--workload serve_w512 --all"] {
        assert_eq!(args(all).expect("valid").workloads, WORKLOADS.to_vec());
    }
    assert_eq!(Workload::by_name("serve_w512"), Some(WORKLOADS[0]));
    for bad in [
        "--workload nope",
        "--trace 2",
        "--seed",
        "--seconds 0",
        "--bogus 1",
    ] {
        assert!(args(bad).is_err(), "{bad} must be rejected");
    }
}

#[test]
fn block_statistics_skip_slowed_blocks_and_follow_a_growing_history() {
    // Eight 1000-step blocks; the first warms up and is not measured.
    let pass_of = |block_us: &[f64], growing: bool| Pass {
        latency_us: block_us.iter().flat_map(|&v| [v; 1000]).collect(),
        service_us: block_us.iter().flat_map(|&v| [v; 1000]).collect(),
        forecasts: vec![1.0; 1000 * block_us.len()],
        block: 1000,
        growing,
        ..Pass::default()
    };
    // A fixed input with two slowed blocks reads as the unslowed blocks.
    let fixed = pass_of(
        &[500.0, 100.0, 150.0, 100.0, 100.0, 150.0, 100.0, 100.0],
        false,
    );
    assert_eq!(fixed.latency(0.5), 100.0);
    assert_eq!(fixed.capacity(), 1e4);
    assert_eq!(fixed.within(120.0), 1.0);
    // A change that slows four of the seven measured blocks shows.
    let regressed = pass_of(
        &[500.0, 150.0, 100.0, 150.0, 100.0, 150.0, 100.0, 150.0],
        false,
    );
    assert_eq!(regressed.latency(0.5), 150.0);
    assert_eq!(regressed.within(120.0), 0.0);
    // A growing history costs 20 µs more per block; the slowed second
    // block neither hides the growth nor shifts the reading off the
    // middle block's 180 µs.
    let growing = pass_of(
        &[500.0, 180.0, 140.0, 160.0, 180.0, 200.0, 220.0, 240.0],
        true,
    );
    assert!((growing.latency(0.5) - 180.0).abs() < 1e-9);
}

#[test]
fn probe_scaling_cancels_machine_speed_but_not_slower_code() {
    // Eight 1000-step blocks; from step 3000 on the core runs at half
    // speed, which doubles both the served work and the probe. Every
    // other step finds no time for a probe.
    let n = 8000;
    let slow = |i: usize| i >= 3000;
    let pass_of = |work_us: f64, slowdown: bool| {
        let factor = |i: usize| if slowdown && slow(i) { 2.0 } else { 1.0 };
        Pass {
            latency_us: (0..n).map(|i| work_us * factor(i)).collect(),
            service_us: (0..n).map(|i| work_us * factor(i)).collect(),
            forecasts: vec![1.0; n],
            probe_us: (0..n)
                .map(|i| {
                    if i % 2 == 1 {
                        f64::NAN
                    } else {
                        REFERENCE_PROBE_US * factor(i)
                    }
                })
                .collect(),
            block: 1000,
            ..Pass::default()
        }
    };
    // Unscaled, five of the seven measured blocks would read 200 µs.
    let slowed_machine = pass_of(100.0, true);
    assert_eq!(slowed_machine.latency(0.5), 100.0);
    assert_eq!(slowed_machine.capacity(), 1e4);
    assert_eq!(slowed_machine.within(150.0), 1.0);
    // Code that does twice the work on an unslowed machine reads twice.
    let slower_code = pass_of(200.0, false);
    assert_eq!(slower_code.latency(0.5), 200.0);
    assert_eq!(slower_code.capacity(), 5e3);
    // A pass served unpaced runs no probe and stays unscaled.
    let unpaced = Pass {
        probe_us: vec![f64::NAN; n],
        ..pass_of(100.0, true)
    };
    assert_eq!(unpaced.latency(0.5), 200.0);
    assert_eq!(unpaced.probe_p50(), 0.0);
}
