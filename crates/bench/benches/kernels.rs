//! Benchmarks for the batched GEMM training path: the cache-blocked
//! linalg kernels, the batched dense forward and MLP train step against
//! 64 batch-of-one calls, and the minibatch-as-matrix DDPG update.
//!
//! Flags (combinable):
//! - `--quick`   shrink the measurement budget for CI smoke runs;
//! - `--json`    print a machine-readable `kernels_bench` report on stdout;
//! - `--out <p>` also write that JSON document to the file `<p>`;
//! - `--check`   exit non-zero if one batched call is slower than 64
//!   batch-of-one calls on the kernels DDPG uses
//!   (`dense_forward_32x32_batch64`, `mlp_fwd_bwd_12_32_32_1_batch64`) —
//!   the perf regression gate wired into CI.
//!
//! The DDPG benchmarks fill the replay buffer with synthetic transitions
//! rather than a fitted forecaster pool: the update cost depends only on
//! the state/action dimensions, batch size, and network shape, and this
//! keeps `--quick` runs in seconds. Each DDPG sample times
//! [`UPDATES_PER_RUN`] consecutive updates from a freshly seeded agent
//! (reported per update), so every sample traverses the same weight
//! trajectory, sees the same activation sparsity, and is deterministic.

use eadrl_bench::harness::{median_ns, Harness, Summary};
use eadrl_bench::{emit_bench_report, exit_on_gate_failures};
use eadrl_linalg::{kernels, Matrix};
use eadrl_nn::{Activation, Dense, Mlp, Network};
use eadrl_obs::json::JsonValue;
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy, Transition};
use eadrl_rng::DetRng;
use std::hint::black_box;

/// Pipeline-representative dimensions: ω = 10 recent ensemble outputs as
/// the state, a 10-model pool's weights as the action, and the default
/// 32×32 hidden stack.
const STATE_DIM: usize = 10;
const ACTION_DIM: usize = 10;

/// Consecutive updates timed per DDPG benchmark sample (from a fresh
/// seeded agent, so every sample does the identical deterministic work).
const UPDATES_PER_RUN: usize = 100;

fn random_matrix(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    Matrix::from_rows(&data).expect("rectangular rows")
}

/// The unblocked reference GEMM the blocked kernel is measured against
/// (same i-k-j order, no tiling, fresh accumulation).
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let brow = &b[kk * n..(kk + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

fn bench_gemm(c: &mut Harness) {
    let mut rng = DetRng::seed_from_u64(7);
    let (m, k, n) = (64, 96, 64);
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let mut out = vec![0.0; m * n];
    let mut group = c.benchmark_group("gemm_64x96x64");
    group.bench_function("naive_ikj", |b_| {
        b_.iter(|| {
            naive_gemm(m, k, n, a.data(), b.data(), &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("blocked", |b_| {
        b_.iter(|| {
            kernels::gemm(m, k, n, a.data(), b.data(), &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_dense_forward(c: &mut Harness) -> Vec<(String, Summary)> {
    let mut rng = DetRng::seed_from_u64(11);
    let batch = 64;
    let rows: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..32).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let input = Matrix::from_rows(&rows).expect("rectangular rows");
    let mut per = Dense::new(&mut rng, 32, 32, Activation::Relu);
    let mut bat = per.clone();
    let mut group = c.benchmark_group("dense_forward_32x32_batch64");
    group.bench_function("per_sample_x64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &rows {
                acc += per.forward(row)[0];
            }
            black_box(acc)
        })
    });
    group.bench_function("forward_batch", |b| {
        b.iter(|| {
            let out = bat.forward_batch(&input);
            black_box(out.row(0)[0])
        })
    });
    group.finish()
}

fn bench_mlp_train_step(c: &mut Harness) -> Vec<(String, Summary)> {
    let mut rng = DetRng::seed_from_u64(13);
    let batch = 64;
    let rows: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..12).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let grads: Vec<Vec<f64>> = (0..batch)
        .map(|_| vec![rng.random_range(-1.0..1.0)])
        .collect();
    let input = Matrix::from_rows(&rows).expect("rectangular rows");
    let gout = Matrix::from_rows(&grads).expect("rectangular rows");
    let mut per = Mlp::new(
        &mut rng,
        &[12, 32, 32, 1],
        Activation::Relu,
        Activation::Identity,
    );
    let mut bat = per.clone();
    let mut group = c.benchmark_group("mlp_fwd_bwd_12_32_32_1_batch64");
    group.bench_function("per_sample_x64", |b| {
        b.iter(|| {
            per.zero_grad();
            for (x, g) in rows.iter().zip(grads.iter()) {
                per.forward(x);
                per.backward(g);
            }
            black_box(per.grad_norm())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            bat.zero_grad();
            bat.forward_batch(&input);
            bat.backward_batch(&gout);
            black_box(bat.grad_norm())
        })
    });
    group.finish()
}

fn agent_with(batch_size: usize) -> DdpgAgent {
    let mut agent = DdpgAgent::new(
        STATE_DIM,
        ACTION_DIM,
        DdpgConfig {
            sampling: SamplingStrategy::Uniform,
            batch_size,
            hidden: vec![32, 32],
            squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
            seed: 42,
            ..Default::default()
        },
    );
    // 256 synthetic transitions: enough for any benched batch size.
    let mut rng = DetRng::seed_from_u64(99);
    for i in 0..256 {
        let state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let next_state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut action: Vec<f64> = (0..ACTION_DIM)
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        agent.observe(Transition {
            state,
            action,
            reward: rng.random_range(-1.0..1.0),
            next_state,
            done: i % 9 == 0,
        });
    }
    agent
}

/// One `ddpg_update_batchN` group per batch size; returns
/// `(batch_size, median_ns)` rows for the report.
fn bench_ddpg_update(c: &mut Harness, batch_sizes: &[usize]) -> Vec<(usize, f64)> {
    let mut results = Vec::new();
    for &batch_size in batch_sizes {
        let mut group = c.benchmark_group(format!("ddpg_update_batch{batch_size}"));
        group.bench_function("batched", |b| {
            // Each sample times UPDATES_PER_RUN consecutive updates from a
            // freshly seeded agent. A free-running agent would drift to a
            // different weight state (and activation sparsity) from one
            // sample to the next.
            b.iter_batched(
                || agent_with(batch_size),
                |mut agent| {
                    for _ in 0..UPDATES_PER_RUN {
                        agent.update();
                    }
                    black_box(agent.updates())
                },
            );
        });
        results.push((batch_size, median_ns(&group.finish(), "batched")));
    }
    results
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let mut h = if quick {
        Harness::default()
            .measurement_time(std::time::Duration::from_millis(300))
            .warm_up_time(std::time::Duration::from_millis(100))
            .sample_size(10)
    } else {
        Harness::default()
            .measurement_time(std::time::Duration::from_secs(2))
            .warm_up_time(std::time::Duration::from_millis(500))
            .sample_size(20)
    };

    bench_gemm(&mut h);
    let dense = bench_dense_forward(&mut h);
    let mlp = bench_mlp_train_step(&mut h);
    let ddpg = bench_ddpg_update(&mut h, &[32, 64]);

    let mut fields: Vec<(String, JsonValue)> = vec![
        ("state_dim".to_string(), STATE_DIM.into()),
        ("action_dim".to_string(), ACTION_DIM.into()),
    ];
    let mut gate_failures = Vec::new();
    // The gate: one batched call must not be slower than 64 batch-of-one
    // calls of the same kernels. NaN (e.g. a zero-time fluke) must also
    // trip it, hence the negated comparison rather than `speedup < 1.0`.
    for (prefix, group, rows, per, bat) in [
        (
            "dense",
            "dense_forward_32x32_batch64",
            &dense,
            "per_sample_x64",
            "forward_batch",
        ),
        (
            "mlp_fwd_bwd",
            "mlp_fwd_bwd_12_32_32_1_batch64",
            &mlp,
            "per_sample_x64",
            "batched",
        ),
    ] {
        let (per_ns, bat_ns) = (median_ns(rows, per), median_ns(rows, bat));
        let speedup = per_ns / bat_ns;
        fields.push((format!("{prefix}_{per}_median_ns"), per_ns.into()));
        fields.push((format!("{prefix}_{bat}_median_ns"), bat_ns.into()));
        fields.push((format!("{prefix}_speedup_batched"), speedup.into()));
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(speedup >= 1.0) {
            gate_failures.push(format!(
                "{group}: batched slower than 64 batch-of-one calls (speedup {speedup:.3}x)"
            ));
        }
    }
    for (batch_size, median_ns) in &ddpg {
        // Each sample timed UPDATES_PER_RUN updates; report per-update.
        fields.push((
            format!("ddpg_update_batch{batch_size}_batched_median_ns"),
            (median_ns / UPDATES_PER_RUN as f64).into(),
        ));
    }

    emit_bench_report("kernels_bench", fields);
    exit_on_gate_failures(
        &gate_failures,
        "batched dense forward and MLP train step at least match 64 batch-of-one calls",
    );
}
