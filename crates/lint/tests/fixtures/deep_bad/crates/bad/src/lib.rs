//! Deliberately broken fixture: one violation per deep pass. Never
//! compiled — parsed by `tests/deep_golden.rs` and by the inverted CI
//! step, both of which require every finding below to fire. `main.rs`
//! calls every pub fn except `orphan`.

/// Panic chain: pub fn -> private helper -> `.unwrap()`.
pub fn entry(v: Option<u32>) -> u32 {
    inner(v)
}

fn inner(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Hot-path offender, named `hot` in the fixture `DESIGN.md` table.
pub struct Engine {
    out: Vec<f64>,
}

impl Engine {
    /// Grows a Vec on the hot path.
    pub fn update(&mut self, x: f64) {
        self.out.push(x);
    }
}

/// Taint root: a `fit` that reads the wall clock through a helper,
/// with no trace gate and no marker.
pub fn fit() -> u64 {
    stamp()
}

fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

/// Unreachable: no bin, example, bench or test calls it.
pub fn orphan() -> u32 {
    0
}
