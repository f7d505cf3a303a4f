//! Cross-module target: `lib.rs` imports `helper` through
//! `use crate::util::helper` and calls it bare, from inside a closure.

/// Forwards into a private fn that panics two hops down.
pub fn helper(x: f64) -> f64 {
    deep(x)
}

fn deep(x: f64) -> f64 {
    normalized(x).expect("finite input")
}

fn normalized(x: f64) -> Option<f64> {
    if x.is_finite() {
        Some(x / 2.0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_halves_like_the_oracle() {
        assert_eq!(super::helper(4.0), crate::roots::oracle(4.0));
    }
}
