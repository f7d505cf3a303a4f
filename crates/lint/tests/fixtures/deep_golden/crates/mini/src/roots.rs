//! One pub fn per root kind of the `unreachable-pub` pass, none of which
//! may be reported, and one that only its own unit test calls, which
//! must be.

/// Called from the bin `src/bin/tool.rs`.
pub fn from_bin() -> u32 {
    1
}

/// Called from `examples/demo.rs` through the umbrella path
/// `eadrl::mini::roots::from_example`.
pub fn from_example() -> u32 {
    2
}

/// Called from the `LIMIT` initializer below.
pub const fn from_const() -> u32 {
    3
}

/// A limit computed at compile time.
pub const LIMIT: u32 = from_const();

/// Called from the `checked!` macro body below.
pub fn from_macro() -> u32 {
    4
}

/// Expands to a call of [`from_macro`].
#[macro_export]
macro_rules! checked {
    () => {
        $crate::roots::from_macro()
    };
}

/// The oracle `util.rs`'s unit test checks `helper` against.
pub fn oracle(x: f64) -> f64 {
    x / 2.0
}

/// Only this file's unit test calls it: the pass must report it.
pub fn only_own_tests() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own() {
        assert_eq!(only_own_tests(), 5);
    }
}
