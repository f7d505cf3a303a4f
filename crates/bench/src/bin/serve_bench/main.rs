//! `serve_bench`: the paper-scale serving benchmark.
//!
//! Fits EA-DRL over the paper's 43-model pool, then serves one-step
//! forecasts in an open loop and reports what a user of the server sees:
//! set-up time, latency, capacity, the share of steps within the latency
//! limit, accuracy and peak memory. Serving times are scaled to a
//! reference core speed read by a probe between steps (see `serve.rs`).
//! Accuracy is measured on fixed reference inputs, so it repeats exactly
//! whatever the seed. `--trace 1` reruns the workload with every pool
//! member wrapped in a timing shim and reports per-layer time instead.
//! See `README.md` beside this file for the workloads, the metric
//! definitions and measured numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/serve_bench/Cargo.toml -- \
//!     --workload serve_w512 --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Each workload prints two JSON lines: its run context, then the result
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod faults;
mod layers;
mod serve;
mod workload;

#[cfg(test)]
mod tests;

use eadrl_obs::json::JsonValue;
use eadrl_obs::ObsConfig;
use layers::{Metric, Recorder, Tracer};
use serve::{digest, percentile, Pass};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use workload::{Data, Kind, Server, Workload, WORKLOADS};

/// Latency limit of `slo_met_ratio`, µs.
const SLO_US: f64 = 10_000.0;
/// Set-ups per untraced run; `setup_s` is their median and the last
/// one serves. Other tenants of a shared machine slow some set-ups by
/// up to half; the median lets one of them pass.
const SETUPS: usize = 3;
/// A served forecast must beat this multiple of the last-value forecast's
/// RMSE to count as correct: a gross sanity bound, not a quality claim.
const NAIVE_RMSE_FACTOR: f64 = 1.5;
/// Seed of the reference inputs `forecast_rmse` is measured on.
const REFERENCE_SEED: u64 = 42;
/// Steps of the reference pass: two blocks of the workloads without
/// refresh, in which `drift_refresh` deploys seven refreshes.
const REFERENCE_STEPS: usize = 2000;

const USAGE: &str =
    "usage: serve_bench [--workload <name>|all | --all] [--seed <n>] [--seconds <n>] \
[--trace 0|1] [--trace-dir <dir>]
workloads: serve_w512, serve_growing, serve_faults, drift_refresh";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    _ => vec![Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--all" => parsed.workloads = WORKLOADS.to_vec(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => {
                parsed.trace_dir = Some(PathBuf::from(value()?));
                parsed.trace = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One workload's result.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Run context printed on the line before the result.
    context: Vec<(String, JsonValue)>,
}

fn main() {
    // Telemetry stays off whatever `EADRL_OBS` says: the end-to-end
    // numbers are measured without it, and the traced run records its
    // own spans.
    eadrl_obs::init(&ObsConfig::off());
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("serve_bench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for w in &args.workloads {
        let report = if args.trace {
            run_traced(w, args.seed, args.seconds, args.trace_dir.as_ref())
        } else {
            run(w, args.seed, args.seconds)
        };
        match report {
            Ok(report) => {
                println!("{}", JsonValue::Obj(report.context.clone()).to_json());
                println!("{}", result_line(&report));
            }
            Err(err) => {
                eprintln!("serve_bench: {}: {err}", w.name);
                std::process::exit(1);
            }
        }
    }
}

/// The untraced run: `SETUPS` set-ups, then one open-loop pass.
fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let data = Data::generate(w.kind, seed, w.steps(seconds));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_digests = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        // Free the previous fit first, so peak memory is one server's.
        drop(served.take());
        let start = Instant::now();
        let (mut server, plan) = set_up(w, seed, &data, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_digests.push(digest(&server.weights()));
        served = Some((server, plan));
    }
    let (mut server, plan) = served.ok_or("no set-up ran")?;
    plan.arm();
    let pass = serve::serve(&mut server, &data, w.rate, None);
    let peak_rss_mb = peak_rss_mb();
    let deterministic = setup_digests.iter().all(|&d| d == setup_digests[0]);
    let correct = deterministic && check(w, &data, &pass, &server, plan.injected());
    drop(server);
    let (reference_rmse, reference_correct) = reference(w)?;
    let metrics = end_to_end(
        percentile(&setup_s, 0.5),
        &pass,
        reference_rmse,
        peak_rss_mb,
    );
    let mut report = report(
        w,
        seed,
        &data,
        &pass,
        correct && reference_correct,
        metrics,
        false,
    );
    report
        .context
        .push(("served_rmse".into(), rmse(&data, &pass.forecasts).into()));
    Ok(report)
}

/// Serves the workload once more on the reference inputs, as fast as
/// the server answers, and returns the RMSE of those forecasts and
/// whether they passed the output checks. Neither the inputs nor the
/// pacing depend on `--seed`, so the RMSE repeats bit for bit from run
/// to run and seed to seed: only a change to the served numbers moves
/// it.
fn reference(w: &Workload) -> Result<(f64, bool), String> {
    let data = Data::generate(w.kind, REFERENCE_SEED, REFERENCE_STEPS);
    let (mut server, plan) = set_up(w, REFERENCE_SEED, &data, None)?;
    plan.arm();
    let pass = serve::serve(&mut server, &data, serve::FLOOD, None);
    let correct = check(w, &data, &pass, &server, plan.injected());
    Ok((rmse(&data, &pass.forecasts), correct))
}

/// The traced run: an untraced reference pass, then the same workload
/// with every member timed. Reports per-layer metrics; the traced
/// forecasts must equal the untraced ones bit for bit.
fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: Option<&PathBuf>,
) -> Result<Report, String> {
    let data = Data::generate(w.kind, seed, w.steps(seconds));
    let (untraced_p50, untraced_digest) = {
        let (mut server, plan) = set_up(w, seed, &data, None)?;
        plan.arm();
        let pass = serve::serve(&mut server, &data, w.rate, None);
        (pass.latency(0.5), digest(&pass.forecasts))
    };
    let recorder = Arc::new(Recorder::default());
    let mut tracer = Tracer::new(Arc::clone(&recorder));
    let begin = Instant::now();
    let (mut server, plan) = set_up(w, seed, &data, Some(&recorder))?;
    tracer.after_setup(begin, Instant::now());
    plan.arm();
    let pass = serve::serve(&mut server, &data, w.rate, Some(&mut tracer));
    let metrics = tracer.layers(&pass, &server, &plan, untraced_p50);
    let transparent = digest(&pass.forecasts) == untraced_digest;
    let correct = transparent && check(w, &data, &pass, &server, plan.injected());
    let report = report(w, seed, &data, &pass, correct, metrics, true);
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut layers = report.context.clone();
        layers.push(("layers".into(), metrics_json(&report.metrics)));
        let files = [
            (
                format!("{}.layers.json", w.name),
                JsonValue::Obj(layers).to_json() + "\n",
            ),
            (format!("{}.jsonl", w.name), tracer.jsonl()),
        ];
        for (name, text) in files {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(report)
}

fn set_up(
    w: &Workload,
    seed: u64,
    data: &Data,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(Server, faults::FaultPlan), String> {
    workload::set_up(
        w.kind,
        workload::paper_pool(seed),
        workload::config(seed),
        data,
        recorder,
    )
    .map_err(|e| format!("set-up failed: {e}"))
}

/// The end-to-end metrics of an untraced pass (the serving statistics
/// are per block, see `Pass::across_blocks`) and of its reference pass.
fn end_to_end(setup_s: f64, pass: &Pass, reference_rmse: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_p50_us", pass.latency(0.5), "us"),
        Metric::new("latency_p99_us", pass.latency(0.99), "us"),
        Metric::new("capacity_steps_per_s", pass.capacity(), "1/s"),
        Metric::new("slo_met_ratio", pass.within(SLO_US), "ratio"),
        Metric::new("forecast_rmse", reference_rmse, "value"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// RMSE of `forecasts` against the actuals, over the finite forecasts.
fn rmse(data: &Data, forecasts: &[f64]) -> f64 {
    let (mut sse, mut n) = (0.0, 0usize);
    for (i, f) in forecasts.iter().enumerate() {
        if f.is_finite() {
            sse += (f - data.actual(i)).powi(2);
            n += 1;
        }
    }
    (sse / n.max(1) as f64).sqrt()
}

/// Output checks shared by both runs: forecasts beat a gross multiple of
/// the last-value forecast, and each workload did what it exists for.
fn check(w: &Workload, data: &Data, pass: &Pass, server: &Server, injected: u64) -> bool {
    let naive: Vec<f64> = (0..data.steps)
        .map(|i| data.history(i).last().copied().unwrap_or(0.0))
        .collect();
    let accurate = rmse(data, &pass.forecasts) < NAIVE_RMSE_FACTOR * rmse(data, &naive);
    let guard_faults = server.guard_faults();
    let purpose = match w.kind {
        // Every injected fault, and nothing else, reaches the guard.
        Kind::Faults => injected > 0 && guard_faults == injected,
        // Every scheduled refresh deployed.
        Kind::Drift => {
            pass.refresh_ms.len() == (data.steps - 1) / workload::REFRESH_EVERY && guard_faults == 0
        }
        Kind::Window | Kind::Growing => guard_faults == 0,
    };
    accurate && purpose
}

fn report(
    w: &Workload,
    seed: u64,
    data: &Data,
    pass: &Pass,
    correct: bool,
    metrics: Vec<Metric>,
    traced: bool,
) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let refresh_steps = pass.refresh_steps.iter().map(|&s| s.into()).collect();
    let context = vec![
        ("workload".into(), w.name.into()),
        ("seed".into(), seed.into()),
        ("trace".into(), traced.into()),
        ("cores".into(), cores.into()),
        ("threads".into(), eadrl_par::thread_count().into()),
        ("steps".into(), data.steps.into()),
        ("rate_per_s".into(), w.rate.into()),
        (
            "generator_late_us_p99".into(),
            percentile(&pass.late_us, 0.99).into(),
        ),
        ("probe_us_p50".into(), pass.probe_p50().into()),
        (
            "reference_probe_us".into(),
            serve::REFERENCE_PROBE_US.into(),
        ),
        ("refresh_steps".into(), JsonValue::Arr(refresh_steps)),
        ("refresh_ms".into(), pass.refresh_ms.as_slice().into()),
        (
            "forecast_digest".into(),
            format!("{:016x}", digest(&pass.forecasts)).into(),
        ),
    ];
    // A metric that is not a finite number cannot be reported as JSON.
    let finite = metrics.iter().all(|m| m.value.is_finite());
    Report {
        correct: correct && finite,
        attempted: data.steps,
        failed: pass.failed,
        metrics,
        context,
    }
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(value)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(report: &Report) -> String {
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(report.correct)),
        ("attempted".into(), JsonValue::Num(report.attempted as f64)),
        ("failed".into(), JsonValue::Num(report.failed as f64)),
        ("metrics".into(), metrics_json(&report.metrics)),
    ])
    .to_json()
}

/// Peak resident set size (`VmHWM`), MB; NaN where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
