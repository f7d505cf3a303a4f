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
    fn sq_dist_matches_norm() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(sq_dist(&a, &b), 25.0);
    }
}
