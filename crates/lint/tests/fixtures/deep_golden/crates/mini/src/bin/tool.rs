//! A bin: every fn in it roots the `unreachable-pub` pass.

use eadrl_mini::roots::from_bin;
use eadrl_mini::shadow::call_free;
use eadrl_mini::{evaluate, evaluate_all, Safe};

fn main() {
    let total = evaluate(&Safe, 1.0) + evaluate_all(&[2.0])[0] + call_free(3.0);
    println!("{total} {}", from_bin());
}
