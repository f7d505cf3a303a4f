//! Property-based tests for the linear-algebra kernels.

use eadrl_linalg::{lstsq, ridge, Cholesky, Lu, Matrix, Qr, SymmetricEigen};
use eadrl_ptest::prelude::*;

/// A random square matrix with entries in a moderate range.
fn square(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
}

/// A random well-conditioned SPD matrix: `BᵀB + n·I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    square(n).prop_map(move |b| {
        let mut g = b.gram();
        g.add_diagonal(n as f64);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_solve_satisfies_the_system(a in spd(4), b in prop::collection::vec(-10.0f64..10.0, 4)) {
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-8, "{l} vs {r}");
        }
    }

    #[test]
    fn cholesky_matches_lu_on_spd(a in spd(3), b in prop::collection::vec(-5.0f64..5.0, 3)) {
        let x1 = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x2 = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (l, r) in x1.iter().zip(x2.iter()) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn qr_least_squares_residual_is_orthogonal(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 6..12),
        ys in prop::collection::vec(-10.0f64..10.0, 12),
    ) {
        let a = Matrix::from_rows(&rows).unwrap();
        let y = &ys[..rows.len()];
        if let Ok(beta) = Qr::new(&a).and_then(|qr| qr.solve(y)) {
            let pred = a.matvec(&beta).unwrap();
            let resid: Vec<f64> = y.iter().zip(pred.iter()).map(|(t, p)| t - p).collect();
            let ortho = a.tr_matvec(&resid).unwrap();
            // Residual orthogonal to the column space = optimality.
            for v in ortho {
                prop_assert!(v.abs() < 1e-6, "residual not orthogonal: {v}");
            }
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrices(a in spd(4)) {
        let e = SymmetricEigen::new(&a).unwrap();
        let mut d = Matrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = e.eigenvalues[i];
            prop_assert!(e.eigenvalues[i] > 0.0, "SPD eigenvalues must be positive");
        }
        let rec = e
            .eigenvectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.eigenvectors.transpose())
            .unwrap();
        prop_assert!(rec.sub(&a).unwrap().max_abs() < 1e-7 * a.max_abs().max(1.0));
    }

    #[test]
    fn ridge_never_increases_coefficient_norm(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 5..15),
        ys in prop::collection::vec(-10.0f64..10.0, 15),
    ) {
        let a = Matrix::from_rows(&rows).unwrap();
        let y = &ys[..rows.len()];
        let small = ridge(&a, y, 1e-6);
        let big = ridge(&a, y, 100.0);
        if let (Ok(s), Ok(b)) = (small, big) {
            let ns: f64 = s.iter().map(|v| v * v).sum();
            let nb: f64 = b.iter().map(|v| v * v).sum();
            prop_assert!(nb <= ns + 1e-9, "regularization grew the norm: {nb} > {ns}");
        }
    }

    #[test]
    fn lstsq_fit_is_at_least_as_good_as_zero(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 4..12),
        ys in prop::collection::vec(-10.0f64..10.0, 12),
    ) {
        let a = Matrix::from_rows(&rows).unwrap();
        let y = &ys[..rows.len()];
        if let Ok(beta) = lstsq(&a, y) {
            let pred = a.matvec(&beta).unwrap();
            let sse: f64 = y.iter().zip(pred.iter()).map(|(t, p)| (t - p) * (t - p)).sum();
            let sse_zero: f64 = y.iter().map(|t| t * t).sum();
            prop_assert!(sse <= sse_zero + 1e-6, "worse than the zero fit");
        }
    }

    #[test]
    fn matmul_is_associative_with_vectors(
        a in square(3),
        b in square(3),
        v in prop::collection::vec(-10.0f64..10.0, 3),
    ) {
        let ab_v = a.matmul(&b).unwrap().matvec(&v).unwrap();
        let a_bv = a.matvec(&b.matvec(&v).unwrap()).unwrap();
        for (l, r) in ab_v.iter().zip(a_bv.iter()) {
            prop_assert!((l - r).abs() < 1e-6 * l.abs().max(1.0));
        }
    }

    #[test]
    fn transpose_is_an_involution(a in square(4)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// The cache-blocked GEMM must be *bitwise* equal to the unblocked
    /// i-k-j reference at shapes straddling the tile boundaries — this is
    /// the determinism contract the batched training path rests on.
    #[test]
    fn blocked_gemm_is_bitwise_identical_to_naive(
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let fill = |len: usize, salt: u64| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed ^ salt);
                    if h.is_multiple_of(5) { 0.0 } else { (h >> 32) as f64 / 1e8 - 21.0 }
                })
                .collect()
        };
        let a = Matrix::from_vec(m, k, fill(m * k, 1)).unwrap();
        let b = Matrix::from_vec(k, n, fill(k * n, 2)).unwrap();
        let blocked = a.matmul(&b).unwrap();
        let mut naive = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a[(i, kk)];
                for j in 0..n {
                    naive[(i, j)] += av * b[(kk, j)];
                }
            }
        }
        let lb: Vec<u64> = blocked.data().iter().map(|x| x.to_bits()).collect();
        let ln: Vec<u64> = naive.data().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(lb, ln);
    }

    /// `matvec` (now routed through `vector::dot`) must agree bitwise with
    /// the corresponding GEMM column, and `transpose_into`/`matmul_into`
    /// must agree with their allocating counterparts.
    #[test]
    fn into_kernels_match_allocating_kernels_bitwise(a in square(5), b in square(5)) {
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &a.matmul(&b).unwrap());

        let mut t = Matrix::default();
        a.transpose_into(&mut t);
        prop_assert_eq!(&t, &a.transpose());

        let v = b.row(0);
        let mut mv = Vec::new();
        a.matvec_into(v, &mut mv).unwrap();
        let direct = a.matvec(v).unwrap();
        prop_assert_eq!(
            mv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
