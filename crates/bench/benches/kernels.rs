//! Benchmarks for the batched GEMM training path: the cache-blocked
//! linalg kernels, the batched dense forward and MLP train step against
//! 64 batch-of-one calls, and the minibatch-as-matrix DDPG update.
//!
//! Takes the harness flags (`--quick`, `--json`, `--out <p>`, `--check`;
//! see [`eadrl_bench::harness`]). `--check` fails if one batched call is
//! slower than 64 batch-of-one calls on the kernels DDPG uses
//! (`dense_forward_32x32_batch64`, `mlp_fwd_bwd_12_32_32_1_batch64`) —
//! the perf regression gate wired into CI.
//!
//! The DDPG benchmarks fill the replay buffer with synthetic transitions
//! rather than a fitted forecaster pool: the update cost depends only on
//! the state/action dimensions, batch size, network shape and replay
//! sampling, and this keeps `--quick` runs in seconds. Each DDPG case
//! times [`UPDATES_PER_RUN`] consecutive updates from a freshly seeded
//! agent, so every sample traverses the same weight trajectory, sees the
//! same activation sparsity, and is deterministic; its row is the median
//! of those runs, not of one update. The `ddpg_update_batch32_paper` row
//! runs at the paper's shape: ω = 10, a 43-member pool, diversity
//! sampling over 3,000 stored transitions with rank-valued rewards, and
//! one push before each update, as in the training loop late in warm-up.
//!
//! The report describes `simd`, the compiled copy of the GEMM kernels the
//! run used (`"avx2"` or `"portable"`).

use eadrl_bench::harness::{Gate, Harness};
use eadrl_linalg::{kernels, Matrix};
use eadrl_nn::{Activation, Dense, Mlp, Network};
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

/// One batched call must not be slower than 64 batch-of-one calls of the
/// same kernels.
const GATES: [Gate; 2] = [
    Gate::at_most(
        "dense_forward_32x32_batch64/forward_batch",
        "dense_forward_32x32_batch64/per_sample_x64",
    ),
    Gate::at_most(
        "mlp_fwd_bwd_12_32_32_1_batch64/batched",
        "mlp_fwd_bwd_12_32_32_1_batch64/per_sample_x64",
    ),
];

/// The paper's pool size: the action of the paper-shape update row.
const PAPER_ACTION_DIM: usize = 43;

/// Transitions stored before the paper-shape row's timed updates.
const PAPER_PREFILL: usize = 3_000;

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
}

fn bench_dense_forward(c: &mut Harness) {
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
}

fn bench_mlp_train_step(c: &mut Harness) {
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
}

/// A synthetic transition's values, owned so that a timed run only pushes
/// them by reference.
struct Sample {
    state: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_state: Vec<f64>,
    done: bool,
}

impl Sample {
    fn view(&self) -> Transition<'_> {
        Transition {
            state: &self.state,
            action: &self.action,
            reward: self.reward,
            next_state: &self.next_state,
            done: self.done,
        }
    }
}

/// A synthetic transition: uniform states, a random simplex action and
/// `reward`; every ninth one is terminal.
fn transition(rng: &mut DetRng, action_dim: usize, reward: f64, i: usize) -> Sample {
    let state: Vec<f64> = (0..STATE_DIM)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let next_state: Vec<f64> = (0..STATE_DIM)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let mut action: Vec<f64> = (0..action_dim)
        .map(|_| rng.random_range(0.0..1.0))
        .collect();
    let sum: f64 = action.iter().sum();
    for a in action.iter_mut() {
        *a /= sum;
    }
    Sample {
        state,
        action,
        reward,
        next_state,
        done: i.is_multiple_of(9),
    }
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
        let reward = rng.random_range(-1.0..1.0);
        agent.observe(transition(&mut rng, ACTION_DIM, reward, i).view());
    }
    agent
}

/// The paper-shape agent (EA-DRL's DDPG configuration at ω = 10 and a
/// 43-member pool) with [`PAPER_PREFILL`] stored transitions, plus the
/// [`UPDATES_PER_RUN`] transitions a timed run pushes, one before each
/// update. Rewards are rank-valued (`k / 43`, the normalized Eq. 3
/// reward), so the diversity median sits on ties.
fn paper_agent() -> (DdpgAgent, Vec<Sample>) {
    let mut agent = DdpgAgent::new(
        STATE_DIM,
        PAPER_ACTION_DIM,
        DdpgConfig {
            sampling: SamplingStrategy::Diversity,
            batch_size: 32,
            hidden: vec![32, 32],
            squash: ActionSquash::Softmax,
            noise_sigma: 0.3,
            seed: 42,
            ..Default::default()
        },
    );
    let mut rng = DetRng::seed_from_u64(4343);
    let mut rank_transition = |i: usize| {
        let reward = rng.random_range(1..PAPER_ACTION_DIM + 1) as f64 / PAPER_ACTION_DIM as f64;
        transition(&mut rng, PAPER_ACTION_DIM, reward, i)
    };
    for i in 0..PAPER_PREFILL {
        agent.observe(rank_transition(i).view());
    }
    let pushes = (0..UPDATES_PER_RUN)
        .map(|i| rank_transition(PAPER_PREFILL + i))
        .collect();
    (agent, pushes)
}

/// The `ddpg_update_batch32_paper` group: per run, [`UPDATES_PER_RUN`]
/// pushes each followed by an update, from a fresh paper-shape agent.
fn bench_ddpg_update_paper(c: &mut Harness) {
    let mut group = c.benchmark_group("ddpg_update_batch32_paper");
    group.bench_function("batched", |b| {
        b.iter_batched(paper_agent, |(mut agent, pushes)| {
            for t in &pushes {
                agent.observe(t.view());
                agent.update();
            }
            black_box(agent.updates())
        });
    });
}

/// One `ddpg_update_batchN` group per batch size.
fn bench_ddpg_update(c: &mut Harness, batch_sizes: &[usize]) {
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
    }
}

fn main() {
    let mut h = Harness::new("kernels");
    bench_gemm(&mut h);
    bench_dense_forward(&mut h);
    bench_mlp_train_step(&mut h);
    bench_ddpg_update(&mut h, &[32, 64]);
    bench_ddpg_update_paper(&mut h);
    h.describe("simd", kernels::simd_path());
    h.finish(&GATES);
}
