//! Small vector helpers used throughout the workspace.
//!
//! These are free functions over `&[f64]` rather than a wrapper type: the
//! rest of the workspace passes plain slices around (time-series windows,
//! network activations, weight vectors), and wrapping them would add noise
//! for no safety gain.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ (the zip silently truncates
/// in release builds, so callers must ensure equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` in place.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale_in_place(a: &mut [f64], s: f64) {
    for x in a.iter_mut() {
        *x *= s;
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Normalizes a non-negative slice to sum to one in place.
///
/// If the sum is zero or non-finite, falls back to the uniform distribution.
/// This is the "standard normalization" the paper applies to the policy
/// network output so weights are positive and sum to one.
pub fn normalize_simplex(a: &mut [f64]) {
    if a.is_empty() {
        return;
    }
    for x in a.iter_mut() {
        if !x.is_finite() || *x < 0.0 {
            *x = 0.0;
        }
    }
    let s: f64 = a.iter().sum();
    if s > 0.0 && s.is_finite() {
        for x in a.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / a.len() as f64;
        for x in a.iter_mut() {
            *x = u;
        }
    }
}

/// Numerically stable softmax.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    if a.is_empty() {
        return Vec::new();
    }
    let m = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        // All entries -inf/NaN: fall back to uniform.
        return vec![1.0 / a.len() as f64; a.len()];
    }
    let exps: Vec<f64> = a.iter().map(|x| (x - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn simplex_normalization() {
        let mut a = [1.0, 3.0];
        normalize_simplex(&mut a);
        assert_eq!(a, [0.25, 0.75]);

        // Negative and NaN entries are clamped before normalizing.
        let mut b = [-1.0, f64::NAN, 2.0];
        normalize_simplex(&mut b);
        assert_eq!(b, [0.0, 0.0, 1.0]);

        // All-zero input falls back to uniform.
        let mut c = [0.0, 0.0, 0.0, 0.0];
        normalize_simplex(&mut c);
        assert_eq!(c, [0.25; 4]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        let q = softmax(&[0.0, f64::NEG_INFINITY]);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(q[1] < 1e-300);
    }

    #[test]
    fn sq_dist_matches_norm() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(sq_dist(&a, &b), 25.0);
    }
}
