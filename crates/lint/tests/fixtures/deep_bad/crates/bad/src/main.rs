//! The fixture's bin: roots every pub fn of the library but `orphan`.

use eadrl_bad::{entry, fit, Engine};

fn main() {
    let mut engine = Engine { out: Vec::new() };
    engine.update(fit() as f64);
    println!("{}", entry(Some(1)));
}
