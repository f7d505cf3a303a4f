//! Cache-blocked GEMM kernels and the reusable scratch-buffer arena.
//!
//! These are the slice-level engines behind the batched training path:
//! [`Matrix`](crate::Matrix) methods such as
//! [`matmul_into`](crate::Matrix::matmul_into) delegate here, and the
//! neural-network crate calls them directly on its own flat buffers so the
//! DDPG minibatch update runs one GEMM per layer instead of `batch_size`
//! tiny matvecs.
//!
//! # Determinism contract
//!
//! Every kernel accumulates each output element in **ascending k order**
//! starting from `0.0` (or from the existing value, for the `_acc`
//! variants). Cache blocking only re-tiles the *traversal*; for any fixed
//! output element the sequence of floating-point additions is identical to
//! the textbook loop, so results are bitwise-identical to the pre-blocked
//! kernels and to a per-row `dot`. The exact-zero fast path (skip a
//! multiplier that is `== 0.0`) is bit-identical to multiplying by it for
//! finite operands: partial sums never hold `-0.0` (a cancellation of
//! non-zero terms yields `+0.0`, and `+0.0 + ±0.0 == +0.0`), so adding the
//! skipped `±0.0` product would not change a single bit.
//!
//! # SIMD twins
//!
//! The three GEMM bodies — [`gemm_acc`] (with its `n == 1` micro-kernel),
//! [`gemm_tn_acc`] and [`gates_gemm_acc`] — are `#[inline(always)]`
//! functions compiled twice: once into a portable copy at the build's
//! baseline target features (SSE2 on x86-64, two `f64` lanes) and once
//! into a twin with `#[target_feature(enable = "avx2")]` (four lanes).
//! Each call picks one with `is_x86_feature_detected!("avx2")`; other
//! architectures build only the portable copy. [`simd_path`] names the
//! copy this process runs. The twin compiles the same source and never
//! enables `fma`, and rustc neither contracts `a * b + c` into a fused
//! multiply-add nor reassociates floating-point sums. So every output
//! element keeps its chain of separately rounded IEEE multiplies and adds
//! in ascending `k` order, and both copies produce the same bits. Only
//! the sign and payload of a NaN result may differ between them, because
//! Rust leaves those unspecified. The wrappers keep their names and
//! signatures, so `gemm`, `gates_gemm`, `Matrix::matmul` and the `nn`
//! layers reach the twins without change. The twin call is the only
//! `unsafe` code in the workspace's libraries, and a differential test
//! pins both copies against each other over every tail shape.
//!
//! # Allocation contract
//!
//! No kernel allocates. Callers bring their own output buffers, typically
//! kept in a layer's workspace so hot loops are allocation-free after the
//! first iteration.

/// Runs a GEMM body — an `#[inline(always)]` fn taking three dimensions
/// and the `a`, `b`, `c` slices — through its `avx2` twin when the CPU
/// has AVX2, and through the portable copy otherwise. It expands inside a
/// wrapper returning `()`, so the twin call returns early.
macro_rules! simd_dispatch {
    ($body:ident($d0:expr, $d1:expr, $d2:expr, $a:expr, $b:expr, $c:expr)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            fn avx2_twin(d0: usize, d1: usize, d2: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
                $body(d0, d1, d2, a, b, c)
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2_twin` requires only the `avx2` target
                // feature, and `is_x86_feature_detected!("avx2")` has just
                // confirmed that this CPU supports it.
                #[allow(unsafe_code)]
                unsafe {
                    avx2_twin($d0, $d1, $d2, $a, $b, $c)
                };
                return;
            }
        }
        $body($d0, $d1, $d2, $a, $b, $c)
    }};
}

/// The compiled copy of the GEMM bodies this process runs: `"avx2"` when
/// the CPU has AVX2 (x86-64 only), `"portable"` otherwise. Bench reports
/// carry it so a run that fell back to the baseline copy is visible.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Rows processed per i-block of the tiled GEMM. Together with [`KC`] this
/// keeps one A-panel and one B-panel resident in L1/L2 while the j loop
/// streams the output row.
pub const MC: usize = 64;

/// Depth (k dimension) processed per block of the tiled GEMM.
pub const KC: usize = 64;

/// `c = a · b` for row-major `a` (`m x k`), `b` (`k x n`), `c` (`m x n`).
///
/// Cache-blocked i-k-j loop order: the innermost loop walks a `b` row and a
/// `c` row contiguously, and rows of `a` that are exactly zero-heavy (e.g.
/// post-ReLU activations) skip whole row updates.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "gemm: lhs shape");
    debug_assert_eq!(b.len(), k * n, "gemm: rhs shape");
    debug_assert_eq!(c.len(), m * n, "gemm: out shape");
    c.fill(0.0);
    gemm_acc(m, k, n, a, b, c);
}

/// `c += a · b`; shapes as in [`gemm`]. The accumulation into each output
/// element runs in ascending `k` order, so per-element results are
/// bitwise-identical to the unblocked i-k-j loop.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "gemm_acc: lhs shape");
    debug_assert_eq!(b.len(), k * n, "gemm_acc: rhs shape");
    debug_assert_eq!(c.len(), m * n, "gemm_acc: out shape");
    simd_dispatch!(gemm_acc_body(m, k, n, a, b, c))
}

/// The body behind [`gemm_acc`], compiled into both SIMD copies.
#[inline(always)]
fn gemm_acc_body(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    if n == 1 {
        gemm_acc_n1(m, k, a, b, c);
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + MC).min(m);
            for i in i0..i1 {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n..(i + 1) * n];
                let mut kk = k0;
                // Register-blocked body: four rank-1 updates share one
                // load/store of the output row. Each element still
                // receives its additions in ascending k order (kk,
                // kk+1, kk+2, kk+3 sequentially), so this is bitwise
                // identical to the scalar loop below.
                while kk + 4 <= k1 {
                    let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
                    // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
                    if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                        kk += 4;
                        continue;
                    }
                    let b0 = &b[kk * n..(kk + 1) * n];
                    let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                    let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                    let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                    let lanes = crow
                        .iter_mut()
                        .zip(b0.iter().zip(b1).zip(b2.iter().zip(b3)));
                    for (cv, ((&v0, &v1), (&v2, &v3))) in lanes {
                        let mut acc = *cv;
                        acc += a0 * v0;
                        acc += a1 * v1;
                        acc += a2 * v2;
                        acc += a3 * v3;
                        *cv = acc;
                    }
                    kk += 4;
                }
                while kk < k1 {
                    let av = arow[kk];
                    // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
                    if av == 0.0 {
                        kk += 1;
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += av * bv;
                    }
                    kk += 1;
                }
            }
            i0 = i1;
        }
        k0 = k1;
    }
}

/// `c += a · b` for the `n == 1` case, where `b` is a single column (e.g.
/// the width-1 output layer of a value network). The generic kernel's
/// inner lane loop degenerates into one latency-bound scalar add chain
/// per row here; processing four rows at once gives four *independent*
/// accumulator chains that hide FP-add latency. Each `c[i]` still sums
/// `a[i][kk] * b[kk]` in ascending `kk` order from its prior value, so
/// results are bitwise identical to the generic path (no zero-skip is
/// needed for parity: adding a skipped `±0.0` product never changes a
/// partial sum — see the module determinism contract).
#[inline(always)]
fn gemm_acc_n1(m: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &a[i * k..(i + 1) * k];
        let r1 = &a[(i + 1) * k..(i + 2) * k];
        let r2 = &a[(i + 2) * k..(i + 3) * k];
        let r3 = &a[(i + 3) * k..(i + 4) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (c[i], c[i + 1], c[i + 2], c[i + 3]);
        let rows = b.iter().zip(r0.iter().zip(r1).zip(r2.iter().zip(r3)));
        for (&bv, ((&x0, &x1), (&x2, &x3))) in rows {
            s0 += x0 * bv;
            s1 += x1 * bv;
            s2 += x2 * bv;
            s3 += x3 * bv;
        }
        c[i] = s0;
        c[i + 1] = s1;
        c[i + 2] = s2;
        c[i + 3] = s3;
        i += 4;
    }
    while i < m {
        let row = &a[i * k..(i + 1) * k];
        let mut s = c[i];
        for (&av, &bv) in row.iter().zip(b.iter()) {
            s += av * bv;
        }
        c[i] = s;
        i += 1;
    }
}

/// `c += aᵀ · b` for row-major `a` (`k x m`), `b` (`k x n`), `c` (`m x n`)
/// — the weight-gradient accumulation `grad_W += dZᵀ · X` of a batched
/// backward pass, written so no transpose is ever materialized.
///
/// The outer loop runs over the shared `k` dimension (the samples) in
/// ascending order, so every output element accumulates its per-sample
/// contributions in exactly the order a per-sample training loop would.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn gemm_tn_acc(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m, "gemm_tn_acc: lhs shape");
    debug_assert_eq!(b.len(), k * n, "gemm_tn_acc: rhs shape");
    debug_assert_eq!(c.len(), m * n, "gemm_tn_acc: out shape");
    simd_dispatch!(gemm_tn_acc_body(k, m, n, a, b, c))
}

/// The body behind [`gemm_tn_acc`], compiled into both SIMD copies.
#[inline(always)]
fn gemm_tn_acc_body(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut s = 0;
    // Register-blocked body: four samples share one load/store of each
    // output row. Every element still receives its per-sample additions
    // in ascending s order (s, s+1, s+2, s+3 sequentially), so this is
    // bitwise identical to the scalar loop below.
    while s + 4 <= k {
        let a0 = &a[s * m..(s + 1) * m];
        let a1 = &a[(s + 1) * m..(s + 2) * m];
        let a2 = &a[(s + 2) * m..(s + 3) * m];
        let a3 = &a[(s + 3) * m..(s + 4) * m];
        let b0 = &b[s * n..(s + 1) * n];
        let b1 = &b[(s + 1) * n..(s + 2) * n];
        let b2 = &b[(s + 2) * n..(s + 3) * n];
        let b3 = &b[(s + 3) * n..(s + 4) * n];
        for j in 0..m {
            let (v0, v1, v2, v3) = (a0[j], a1[j], a2[j], a3[j]);
            // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue;
            }
            let crow = &mut c[j * n..(j + 1) * n];
            let lanes = crow
                .iter_mut()
                .zip(b0.iter().zip(b1).zip(b2.iter().zip(b3)));
            for (cv, ((&w0, &w1), (&w2, &w3))) in lanes {
                let mut acc = *cv;
                acc += v0 * w0;
                acc += v1 * w1;
                acc += v2 * w2;
                acc += v3 * w3;
                *cv = acc;
            }
        }
        s += 4;
    }
    while s < k {
        let arow = &a[s * m..(s + 1) * m];
        let brow = &b[s * n..(s + 1) * n];
        for (j, &av) in arow.iter().enumerate() {
            // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
            if av == 0.0 {
                continue;
            }
            let crow = &mut c[j * n..(j + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
        s += 1;
    }
}

/// `c = a · bᵀ` for row-major `a` (`m x k`), `b` (`n x k`), `c` (`m x n`).
///
/// The NT-layout GEMM of the stacked-gate recurrent path: `b` is a packed
/// weight matrix whose *rows* are dot-product operands (the LSTM's
/// `4H x in_dim` input map or `4H x H` recurrence map), so one call
/// computes all four `i|f|g|o` gate pre-activation blocks for a whole
/// batch of samples — `Z_w = X_t · Wᵀ` — without materializing `Wᵀ`.
/// Each output element is an independent dot product accumulated in
/// ascending `k` order from `0.0`, bitwise-identical to the per-sample
/// `vector::dot(w_row, x)`.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn gates_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(c.len(), m * n, "gates_gemm: out shape");
    c.fill(0.0);
    gates_gemm_acc(m, k, n, a, b, c);
}

/// `c += a · bᵀ`; shapes as in [`gates_gemm`]. The accumulating variant
/// seeds each output element from its existing value — the conv forward
/// pass pre-fills `c` with the broadcast bias so the accumulation chain
/// starts at `b[oc]` exactly like the per-sample loop, and the LSTM path
/// goes through [`gates_gemm`] (zero-seeded) instead.
///
/// Four output columns are processed per pass of the `a` row: four
/// *independent* accumulator chains hide FP-add latency while each chain
/// still sums its products in ascending `k` order.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn gates_gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "gates_gemm_acc: lhs shape");
    debug_assert_eq!(b.len(), n * k, "gates_gemm_acc: rhs shape");
    debug_assert_eq!(c.len(), m * n, "gates_gemm_acc: out shape");
    simd_dispatch!(gates_gemm_acc_body(m, k, n, a, b, c))
}

/// The body behind [`gates_gemm_acc`], compiled into both SIMD copies.
#[inline(always)]
fn gates_gemm_acc_body(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (crow[j], crow[j + 1], crow[j + 2], crow[j + 3]);
            let lanes = arow.iter().zip(b0.iter().zip(b1).zip(b2.iter().zip(b3)));
            for (&av, ((&w0, &w1), (&w2, &w3))) in lanes {
                // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
                if av == 0.0 {
                    continue;
                }
                s0 += av * w0;
                s1 += av * w1;
                s2 += av * w2;
                s3 += av * w3;
            }
            crow[j] = s0;
            crow[j + 1] = s1;
            crow[j + 2] = s2;
            crow[j + 3] = s3;
            j += 4;
        }
        while j < n {
            let brow = &b[j * k..(j + 1) * k];
            let mut s = crow[j];
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                // eadrl-lint: allow(no-float-eq): sparsity fast path — skipping exact zeros is bit-identical to multiplying by them
                if av == 0.0 {
                    continue;
                }
                s += av * bv;
            }
            crow[j] = s;
            j += 1;
        }
    }
}

/// Fused LSTM gate apply for one timestep of a batched forward pass.
///
/// Inputs are the two NT-GEMM halves `zw = X_t · Wᵀ` and
/// `zu = H_prev · Uᵀ` (each `batch x 4H`, gate blocks `[i|f|g|o]`), the
/// packed bias `b` (`4H`) and the previous cell state `c_prev`
/// (`batch x hidden`). For every sample and unit this computes
/// `z = b + (zw + zu)` — the exact expression tree of the per-sequence
/// step, which forms `b + (dot_w + dot_u)` — applies the sigmoid/tanh
/// nonlinearities, and writes the *activated* gates into `gates`
/// (`batch x 4H`), the new cell state into `c`, its tanh into `tanh_c`,
/// and the new hidden state into `h` (each `batch x hidden`). Purely
/// elementwise, so batching cannot reorder any accumulation.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
#[allow(clippy::too_many_arguments)]
pub fn lstm_gate_apply(
    batch: usize,
    hidden: usize,
    b: &[f64],
    zw: &[f64],
    zu: &[f64],
    c_prev: &[f64],
    gates: &mut [f64],
    c: &mut [f64],
    tanh_c: &mut [f64],
    h: &mut [f64],
) {
    let g4 = 4 * hidden;
    debug_assert_eq!(b.len(), g4, "lstm_gate_apply: bias shape");
    debug_assert_eq!(zw.len(), batch * g4, "lstm_gate_apply: zw shape");
    debug_assert_eq!(zu.len(), batch * g4, "lstm_gate_apply: zu shape");
    debug_assert_eq!(c_prev.len(), batch * hidden, "lstm_gate_apply: c_prev");
    debug_assert_eq!(gates.len(), batch * g4, "lstm_gate_apply: gates shape");
    debug_assert_eq!(c.len(), batch * hidden, "lstm_gate_apply: c shape");
    debug_assert_eq!(tanh_c.len(), batch * hidden, "lstm_gate_apply: tanh_c");
    debug_assert_eq!(h.len(), batch * hidden, "lstm_gate_apply: h shape");
    let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
    for s in 0..batch {
        let zw_row = &zw[s * g4..(s + 1) * g4];
        let zu_row = &zu[s * g4..(s + 1) * g4];
        let gate_row = &mut gates[s * g4..(s + 1) * g4];
        for (row, gv) in gate_row.iter_mut().enumerate() {
            let z = b[row] + (zw_row[row] + zu_row[row]);
            *gv = if (2 * hidden..3 * hidden).contains(&row) {
                z.tanh()
            } else {
                sigmoid(z)
            };
        }
        for kk in 0..hidden {
            let iv = gate_row[kk];
            let fv = gate_row[hidden + kk];
            let gv = gate_row[2 * hidden + kk];
            let ov = gate_row[3 * hidden + kk];
            let cv = fv * c_prev[s * hidden + kk] + iv * gv;
            let tv = cv.tanh();
            c[s * hidden + kk] = cv;
            tanh_c[s * hidden + kk] = tv;
            h[s * hidden + kk] = ov * tv;
        }
    }
}

/// Fused LSTM gate gradient for one timestep of a batched BPTT pass.
///
/// Reads the activated `gates` (`batch x 4H`, blocks `[i|f|g|o]`),
/// `tanh_c` and `c_prev` (`batch x hidden`), the incoming hidden
/// gradient `dh` and next-step cell gradient `dc_next`; writes the
/// pre-activation gate gradients `dz` (`batch x 4H`) and the cell
/// gradient flowing to the previous step `dc_prev`. Elementwise and
/// term-for-term identical to the per-sequence backward step.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
#[allow(clippy::too_many_arguments)]
pub fn lstm_gate_grad(
    batch: usize,
    hidden: usize,
    gates: &[f64],
    tanh_c: &[f64],
    c_prev: &[f64],
    dh: &[f64],
    dc_next: &[f64],
    dz: &mut [f64],
    dc_prev: &mut [f64],
) {
    let g4 = 4 * hidden;
    debug_assert_eq!(gates.len(), batch * g4, "lstm_gate_grad: gates shape");
    debug_assert_eq!(tanh_c.len(), batch * hidden, "lstm_gate_grad: tanh_c");
    debug_assert_eq!(c_prev.len(), batch * hidden, "lstm_gate_grad: c_prev");
    debug_assert_eq!(dh.len(), batch * hidden, "lstm_gate_grad: dh shape");
    debug_assert_eq!(dc_next.len(), batch * hidden, "lstm_gate_grad: dc_next");
    debug_assert_eq!(dz.len(), batch * g4, "lstm_gate_grad: dz shape");
    debug_assert_eq!(dc_prev.len(), batch * hidden, "lstm_gate_grad: dc_prev");
    for s in 0..batch {
        let gate_row = &gates[s * g4..(s + 1) * g4];
        let dz_row = &mut dz[s * g4..(s + 1) * g4];
        for kk in 0..hidden {
            let iv = gate_row[kk];
            let fv = gate_row[hidden + kk];
            let gv = gate_row[2 * hidden + kk];
            let ov = gate_row[3 * hidden + kk];
            let tv = tanh_c[s * hidden + kk];
            let dh_k = dh[s * hidden + kk];
            let do_k = dh_k * tv;
            let dc = dc_next[s * hidden + kk] + dh_k * ov * (1.0 - tv * tv);
            let di = dc * gv;
            let df = dc * c_prev[s * hidden + kk];
            let dg = dc * iv;
            dc_prev[s * hidden + kk] = dc * fv;
            dz_row[kk] = di * iv * (1.0 - iv);
            dz_row[hidden + kk] = df * fv * (1.0 - fv);
            dz_row[2 * hidden + kk] = dg * (1.0 - gv * gv);
            dz_row[3 * hidden + kk] = do_k * ov * (1.0 - ov);
        }
    }
}

/// `out = aᵀ` for row-major `a` of shape `rows x cols` (`out` must hold
/// `cols * rows` elements). Pure data movement — no arithmetic, so there is
/// nothing to reorder.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn transpose(rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), rows * cols, "transpose: input shape");
    debug_assert_eq!(out.len(), rows * cols, "transpose: output shape");
    for i in 0..rows {
        let arow = &a[i * cols..(i + 1) * cols];
        for (j, &v) in arow.iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
}

/// `out[i] = dot(a.row(i), x)` for row-major `a` (`m x n`): the matvec
/// kernel shared by [`Matrix::matvec`](crate::Matrix::matvec) and
/// [`Matrix::matvec_into`](crate::Matrix::matvec_into), built on
/// [`vector::dot`](crate::vector::dot) so the accumulation order is the
/// canonical ascending-index dot product.
///
/// # Panics
/// Debug-panics when the slice lengths do not match the given shape.
pub fn matvec(m: usize, n: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n, "matvec: matrix shape");
    debug_assert_eq!(x.len(), n, "matvec: vector length");
    debug_assert_eq!(out.len(), m, "matvec: output length");
    for (i, o) in out.iter_mut().enumerate() {
        *o = crate::vector::dot(&a[i * n..(i + 1) * n], x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference GEMM: plain i-k-j, no blocking, no zero skip (for finite
    /// inputs the skip is bit-identical, which these tests rely on).
    fn gemm_ref(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        c
    }

    fn filled(len: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-values with some exact zeros mixed in
        // to exercise the sparsity fast path.
        (0..len)
            .map(|i| {
                let v = ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33) as f64
                    / 1e8;
                if i % 7 == 0 {
                    0.0
                } else {
                    v - 64.0
                }
            })
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_reference_across_block_boundaries() {
        // Sizes straddling MC/KC exercise every tiling edge case.
        // The n == 1 column cases route through the four-row micro-kernel.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (64, 64, 64),
            (65, 70, 67),
            (130, 1, 9),
            (64, 32, 1),
            (7, 33, 1),
        ] {
            let a = filled(m * k, 1);
            let b = filled(k * n, 2);
            let mut c = vec![f64::NAN; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let expect = gemm_ref(m, k, n, &a, &b);
            assert_eq!(c, expect, "gemm {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_acc_accumulates_on_top() {
        let a = filled(6, 3);
        let b = filled(6, 4);
        let mut c = vec![1.0; 4];
        gemm_acc(2, 3, 2, &a, &b, &mut c);
        let mut expect = gemm_ref(2, 3, 2, &a, &b);
        for e in expect.iter_mut() {
            *e += 1.0;
        }
        assert_eq!(c, expect);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        for &(k, m, n) in &[(1, 1, 1), (5, 3, 4), (70, 9, 11)] {
            let a = filled(k * m, 5);
            let b = filled(k * n, 6);
            let mut at = vec![0.0; k * m];
            transpose(k, m, &a, &mut at);
            let mut c = vec![0.0; m * n];
            gemm_tn_acc(k, m, n, &a, &b, &mut c);
            let expect = gemm_ref(m, k, n, &at, &b);
            assert_eq!(c, expect, "gemm_tn {k}x{m}x{n}");
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let a = filled(12, 7);
        let mut t = vec![0.0; 12];
        transpose(3, 4, &a, &mut t);
        let mut back = vec![0.0; 12];
        transpose(4, 3, &t, &mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn matvec_is_per_row_dot() {
        let a = filled(6, 8);
        let x = filled(3, 9);
        let mut out = vec![0.0; 2];
        matvec(2, 3, &a, &x, &mut out);
        assert_eq!(out[0], crate::vector::dot(&a[0..3], &x));
        assert_eq!(out[1], crate::vector::dot(&a[3..6], &x));
    }

    #[test]
    fn gates_gemm_matches_per_row_dots() {
        // Each output element must be bitwise-equal to the per-sample
        // vector::dot of an `a` row against a `b` (weight) row, the exact
        // chain the per-sequence LSTM step uses. Sizes cover the 4-wide
        // column micro-kernel, its scalar tail, and k == 1 (in_dim 1).
        for &(m, k, n) in &[(1, 1, 4), (3, 5, 8), (16, 1, 24), (7, 9, 10), (5, 70, 3)] {
            let a = filled(m * k, 10);
            let b = filled(n * k, 11);
            let mut c = vec![f64::NAN; m * n];
            gates_gemm(m, k, n, &a, &b, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let expect = crate::vector::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(c[i * n + j], expect, "gates_gemm {m}x{k}x{n} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gates_gemm_acc_seeds_from_existing_values() {
        // The conv forward path pre-fills `c` with the bias so the chain
        // starts at b[oc]; verify against the same bias-seeded scalar loop.
        let (m, k, n) = (4, 6, 5);
        let a = filled(m * k, 12);
        let b = filled(n * k, 13);
        let seed = filled(m * n, 14);
        let mut c = seed.clone();
        gates_gemm_acc(m, k, n, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut s = seed[i * n + j];
                for kk in 0..k {
                    s += a[i * k + kk] * b[j * k + kk];
                }
                assert_eq!(c[i * n + j], s, "gates_gemm_acc at ({i},{j})");
            }
        }
    }

    #[test]
    fn lstm_gate_apply_matches_scalar_step() {
        // Reference: the per-sequence step's expression tree, one sample
        // and unit at a time.
        let (batch, hidden) = (3, 5);
        let g4 = 4 * hidden;
        let b = filled(g4, 15);
        let zw = filled(batch * g4, 16);
        let zu = filled(batch * g4, 17);
        let c_prev = filled(batch * hidden, 18);
        let mut gates = vec![f64::NAN; batch * g4];
        let mut c = vec![f64::NAN; batch * hidden];
        let mut tanh_c = vec![f64::NAN; batch * hidden];
        let mut h = vec![f64::NAN; batch * hidden];
        lstm_gate_apply(
            batch,
            hidden,
            &b,
            &zw,
            &zu,
            &c_prev,
            &mut gates,
            &mut c,
            &mut tanh_c,
            &mut h,
        );
        let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
        for s in 0..batch {
            for kk in 0..hidden {
                let z = |row: usize| b[row] + (zw[s * g4 + row] + zu[s * g4 + row]);
                let iv = sigmoid(z(kk));
                let fv = sigmoid(z(hidden + kk));
                let gv = z(2 * hidden + kk).tanh();
                let ov = sigmoid(z(3 * hidden + kk));
                assert_eq!(gates[s * g4 + kk], iv);
                assert_eq!(gates[s * g4 + hidden + kk], fv);
                assert_eq!(gates[s * g4 + 2 * hidden + kk], gv);
                assert_eq!(gates[s * g4 + 3 * hidden + kk], ov);
                let cv = fv * c_prev[s * hidden + kk] + iv * gv;
                assert_eq!(c[s * hidden + kk], cv);
                assert_eq!(tanh_c[s * hidden + kk], cv.tanh());
                assert_eq!(h[s * hidden + kk], ov * cv.tanh());
            }
        }
    }

    #[test]
    fn lstm_gate_grad_matches_scalar_backward_step() {
        let (batch, hidden) = (2, 4);
        let g4 = 4 * hidden;
        // Gates must look like activation outputs (in (0, 1) / (-1, 1));
        // squash the pseudo-values accordingly.
        let gates: Vec<f64> = filled(batch * g4, 19)
            .iter()
            .map(|v| 1.0 / (1.0 + (-v / 64.0).exp()))
            .collect();
        let tanh_c: Vec<f64> = filled(batch * hidden, 20)
            .iter()
            .map(|v| (v / 64.0).tanh())
            .collect();
        let c_prev = filled(batch * hidden, 21);
        let dh = filled(batch * hidden, 22);
        let dc_next = filled(batch * hidden, 23);
        let mut dz = vec![f64::NAN; batch * g4];
        let mut dc_prev = vec![f64::NAN; batch * hidden];
        lstm_gate_grad(
            batch,
            hidden,
            &gates,
            &tanh_c,
            &c_prev,
            &dh,
            &dc_next,
            &mut dz,
            &mut dc_prev,
        );
        for s in 0..batch {
            for kk in 0..hidden {
                let iv = gates[s * g4 + kk];
                let fv = gates[s * g4 + hidden + kk];
                let gv = gates[s * g4 + 2 * hidden + kk];
                let ov = gates[s * g4 + 3 * hidden + kk];
                let tv = tanh_c[s * hidden + kk];
                let dh_k = dh[s * hidden + kk];
                let do_k = dh_k * tv;
                let dc = dc_next[s * hidden + kk] + dh_k * ov * (1.0 - tv * tv);
                assert_eq!(dc_prev[s * hidden + kk], dc * fv);
                assert_eq!(dz[s * g4 + kk], dc * gv * iv * (1.0 - iv));
                assert_eq!(
                    dz[s * g4 + hidden + kk],
                    dc * c_prev[s * hidden + kk] * fv * (1.0 - fv)
                );
                assert_eq!(dz[s * g4 + 2 * hidden + kk], dc * iv * (1.0 - gv * gv));
                assert_eq!(dz[s * g4 + 3 * hidden + kk], do_k * ov * (1.0 - ov));
            }
        }
    }

    /// A `rows x cols` operand mixing exact zeros (some rows zero in
    /// aligned four-column groups and some columns zero over aligned
    /// four-row groups, so every sparsity skip fires), `-0.0`, subnormals
    /// and normal values; with `specials`, also rare ±inf and NaN.
    fn edge_values(rows: usize, cols: usize, seed: u64, specials: bool) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for col in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let h = state >> 11;
                let unit = (h >> 8) as f64 / (1u64 << 45) as f64; // [0, 1)
                let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
                let zero_group = (r.is_multiple_of(3) && (col / 4).is_multiple_of(2))
                    || ((r / 4) % 3 == 1 && col.is_multiple_of(3));
                let v = if zero_group {
                    0.0
                } else if specials && h % 113 < 2 {
                    [sign * f64::INFINITY, f64::NAN][(h % 113) as usize]
                } else {
                    match h % 13 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => sign * f64::MIN_POSITIVE * unit, // subnormal
                        3 => sign * f64::MIN_POSITIVE * (1.0 + unit),
                        _ => sign * 4.0 * unit,
                    }
                };
                out.push(v);
            }
        }
        out
    }

    /// Bitwise equality, except that any NaN equals any NaN: Rust leaves
    /// the sign and payload of a NaN result unspecified, so only its
    /// position is part of the contract.
    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
    }

    /// Runs each GEMM body's portable copy (called directly) and its
    /// public wrapper — which runs the AVX2 twin when the CPU has AVX2 —
    /// on the same inputs and checks they give the same bits. Under Miri
    /// (no AVX2 detected) both calls run the portable body over the
    /// smaller shapes.
    #[test]
    fn simd_twins_match_the_portable_bodies_bitwise() {
        let dims: &[usize] = if cfg!(miri) {
            &[1, 3, 4, 5]
        } else {
            &[1, 3, 4, 5, 10, 32, 43, 53, 64, 65, 70]
        };
        let path = simd_path();
        for &specials in &[false, true] {
            for &m in dims {
                for &k in dims {
                    for &n in dims {
                        let seed = (m * 10_000 + k * 100 + n) as u64 ^ u64::from(specials);
                        let c0 = edge_values(m, n, seed ^ 0xc0, specials);

                        let a = edge_values(m, k, seed, specials);
                        let b = edge_values(k, n, seed ^ 0xb0, specials);
                        let (mut body, mut twin) = (c0.clone(), c0.clone());
                        gemm_acc_body(m, k, n, &a, &b, &mut body);
                        gemm_acc(m, k, n, &a, &b, &mut twin);
                        assert!(same_bits(&body, &twin), "gemm_acc {m}x{k}x{n} ({path})");

                        let at = edge_values(k, m, seed ^ 0xa1, specials);
                        let (mut body, mut twin) = (c0.clone(), c0.clone());
                        gemm_tn_acc_body(k, m, n, &at, &b, &mut body);
                        gemm_tn_acc(k, m, n, &at, &b, &mut twin);
                        assert!(same_bits(&body, &twin), "gemm_tn_acc {k}x{m}x{n} ({path})");

                        let bt = edge_values(n, k, seed ^ 0xb1, specials);
                        let (mut body, mut twin) = (c0.clone(), c0);
                        gates_gemm_acc_body(m, k, n, &a, &bt, &mut body);
                        gates_gemm_acc(m, k, n, &a, &bt, &mut twin);
                        assert!(
                            same_bits(&body, &twin),
                            "gates_gemm_acc {m}x{k}x{n} ({path})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_path_names_a_compiled_copy() {
        let path = simd_path();
        assert!(path == "avx2" || path == "portable", "{path}");
        if !cfg!(target_arch = "x86_64") {
            assert_eq!(path, "portable");
        }
    }
}
