//! Property-based tests for the RL substrate.

use eadrl_ptest::prelude::*;
use eadrl_rl::{ActionSquash, ReplayBuffer, SamplingStrategy, Transition};
use eadrl_rng::DetRng;

fn transition(reward: f64) -> Transition<'static> {
    Transition {
        state: &[0.0],
        action: &[0.0],
        reward,
        next_state: &[0.0],
        done: false,
    }
}

/// The replay ring as it stood before its rows were flattened: one
/// owned `Vec` per state, action and next state, in a `Vec` of
/// transitions. Push, sample and the two median reads are copied from it
/// unchanged, so the flat ring must match it draw for draw.
mod vec_ring {
    use eadrl_rl::SamplingStrategy;
    use eadrl_rng::DetRng;

    #[derive(Debug, Clone)]
    pub struct Owned {
        pub state: Vec<f64>,
        pub action: Vec<f64>,
        pub reward: f64,
        pub next_state: Vec<f64>,
        pub done: bool,
    }

    pub struct VecRing {
        capacity: usize,
        pub storage: Vec<Owned>,
        next_slot: usize,
        rewards: Vec<f64>,
        sorted: Vec<f64>,
    }

    impl VecRing {
        pub fn new(capacity: usize) -> Self {
            VecRing {
                capacity,
                storage: Vec::new(),
                next_slot: 0,
                rewards: Vec::new(),
                sorted: Vec::new(),
            }
        }

        pub fn push(&mut self, t: Owned) {
            let reward = t.reward;
            if self.storage.len() < self.capacity {
                self.storage.push(t);
                self.rewards.push(reward);
            } else {
                let old = std::mem::replace(&mut self.rewards[self.next_slot], reward);
                self.storage[self.next_slot] = t;
                self.next_slot = (self.next_slot + 1) % self.capacity;
                if let Ok(at) = self.sorted.binary_search_by(|x| x.total_cmp(&old)) {
                    self.sorted.remove(at);
                }
            }
            if !reward.is_nan() {
                let at = self
                    .sorted
                    .partition_point(|x| x.total_cmp(&reward).is_lt());
                self.sorted.insert(at, reward);
            }
        }

        /// The drawn slots, in draw order.
        pub fn sample(&self, n: usize, strategy: SamplingStrategy, rng: &mut DetRng) -> Vec<usize> {
            let mut drawn = Vec::new();
            if self.storage.is_empty() {
                return drawn;
            }
            match strategy {
                SamplingStrategy::Uniform => {
                    for _ in 0..n {
                        drawn.push(rng.random_range(0..self.storage.len()));
                    }
                }
                SamplingStrategy::Diversity => {
                    let median = self.reward_median();
                    let (mut high, mut low) = (Vec::new(), Vec::new());
                    for (i, &reward) in self.rewards.iter().enumerate() {
                        if reward >= median {
                            high.push(i);
                        } else {
                            low.push(i);
                        }
                    }
                    let half = n / 2;
                    for (pool, count) in [(&high, half), (&low, n - half)] {
                        for _ in 0..count {
                            drawn.push(if pool.is_empty() {
                                rng.random_range(0..self.storage.len())
                            } else {
                                pool[rng.random_range(0..pool.len())]
                            });
                        }
                    }
                }
            }
            drawn
        }

        pub fn above_median_fraction(&self) -> f64 {
            if self.storage.is_empty() {
                return f64::NAN;
            }
            let median = self.reward_median();
            let above = self.sorted.len() - self.sorted.partition_point(|&x| x < median);
            above as f64 / self.storage.len() as f64
        }

        pub fn reward_median(&self) -> f64 {
            let n = self.sorted.len();
            if n == 0 {
                f64::NAN
            } else if n % 2 == 1 {
                self.sorted[n / 2]
            } else {
                0.5 * (self.sorted[n / 2 - 1] + self.sorted[n / 2])
            }
        }
    }
}

/// A stored value drawn from `op`: ordinary values plus `±0.0`, NaN and
/// infinities, whose bits a copy must keep.
fn value_for(op: u64) -> f64 {
    match op % 11 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::NAN,
        3 => f64::NEG_INFINITY,
        _ => (op as f64 * 0.377).sin() * 1e3,
    }
}

/// A reward drawn from `op`: rank-valued ties (the normalized Eq. 3
/// reward), small-integer ties, `±0.0`, distinct values and NaN.
fn reward_for(op: u64) -> f64 {
    let v = op / 7;
    match op % 7 {
        0 | 1 => (1 + v % 5) as f64 / 5.0,
        2 => (v % 3) as f64 - 1.0,
        3 if v.is_multiple_of(2) => 0.0,
        3 => -0.0,
        4 => f64::NAN,
        _ => (op as f64 * 0.618).sin(),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_never_exceeds_capacity(
        capacity in 1usize..64,
        rewards in prop::collection::vec(-100.0f64..100.0, 0..200),
    ) {
        let mut buf = ReplayBuffer::new(capacity);
        for (i, &r) in rewards.iter().enumerate() {
            buf.push(transition(r));
            prop_assert!(buf.len() <= capacity);
            prop_assert_eq!(buf.len(), (i + 1).min(capacity));
        }
    }

    #[test]
    fn diversity_batches_are_half_high_half_low(
        rewards in prop::collection::vec(-100.0f64..100.0, 10..60),
        n in 2usize..40,
        seed in 0u64..500,
    ) {
        let mut buf = ReplayBuffer::new(1000);
        for &r in &rewards {
            buf.push(transition(r));
        }
        let median = buf.reward_median();
        let any_below = rewards.iter().any(|&r| r < median);
        let mut rng = DetRng::seed_from_u64(seed);
        let batch = buf.sample(n, SamplingStrategy::Diversity, &mut rng);
        prop_assert_eq!(batch.len(), n);
        let high = batch.iter().filter(|t| t.reward >= median).count();
        // Exactly n/2 draws come from the >= median pool; the rest come
        // from the below pool when it is non-empty.
        if any_below {
            prop_assert_eq!(high, n / 2, "median split violated");
        }
    }

    #[test]
    fn uniform_samples_come_from_the_buffer(
        rewards in prop::collection::vec(-10.0f64..10.0, 1..40),
        n in 1usize..30,
        seed in 0u64..500,
    ) {
        let mut buf = ReplayBuffer::new(64);
        for &r in &rewards {
            buf.push(transition(r));
        }
        let mut rng = DetRng::seed_from_u64(seed);
        for t in buf.sample(n, SamplingStrategy::Uniform, &mut rng).iter() {
            prop_assert!(rewards.iter().any(|&r| (r - t.reward).abs() < 1e-12));
        }
    }

    #[test]
    fn flat_rows_match_the_vec_of_transitions_ring(
        capacity in 1usize..12,
        state_dim in 0usize..4,
        action_dim in 1usize..6,
        wide in 0usize..3,
        ops in prop::collection::vec(0u64..1_000_000, 1..150),
        seed in 0u64..1000,
    ) {
        // One op in four draws a batch (both strategies) instead of
        // pushing; small capacities wrap the ring many times. A third of
        // the cases store rows of over 2,000 values, four to a 64 KiB
        // block, so their rings span several blocks. Every push is unique
        // (its first action value is its push index), so equal rows mean
        // equal slots.
        let action_dim = action_dim + if wide == 0 { 2_000 } else { 0 };
        let mut flat = ReplayBuffer::new(capacity);
        let mut reference = vec_ring::VecRing::new(capacity);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut rng_ref = DetRng::seed_from_u64(seed);
        for (index, &op) in ops.iter().enumerate() {
            if op % 4 == 3 && !flat.is_empty() {
                let n = (op / 4 % 10) as usize;
                let strategy = if op / 40 % 2 == 0 {
                    SamplingStrategy::Diversity
                } else {
                    SamplingStrategy::Uniform
                };
                let expect = reference.sample(n, strategy, &mut rng_ref);
                let batch = flat.sample(n, strategy, &mut rng);
                prop_assert_eq!(batch.len(), expect.len());
                for (got, &slot) in batch.iter().zip(&expect) {
                    let want = &reference.storage[slot];
                    prop_assert_eq!(bits(got.state), bits(&want.state));
                    prop_assert_eq!(bits(got.action), bits(&want.action));
                    prop_assert_eq!(got.reward.to_bits(), want.reward.to_bits());
                    prop_assert_eq!(bits(got.next_state), bits(&want.next_state));
                    prop_assert_eq!(got.done, want.done);
                }
            } else {
                let values = |k: usize| value_for(op.wrapping_mul(31).wrapping_add(k as u64));
                let state: Vec<f64> = (0..state_dim).map(values).collect();
                let mut action: Vec<f64> = (0..action_dim).map(|k| values(k + 8)).collect();
                action[0] = index as f64;
                let next_state: Vec<f64> = (0..state_dim).map(|k| values(k + 16)).collect();
                let (reward, done) = (reward_for(op), op % 5 == 0);
                flat.push(Transition {
                    state: &state,
                    action: &action,
                    reward,
                    next_state: &next_state,
                    done,
                });
                reference.push(vec_ring::Owned { state, action, reward, next_state, done });
            }
            prop_assert_eq!(flat.len(), reference.storage.len());
            prop_assert_eq!(
                flat.reward_median().to_bits(),
                reference.reward_median().to_bits()
            );
            prop_assert_eq!(
                flat.above_median_fraction().to_bits(),
                reference.above_median_fraction().to_bits()
            );
        }
    }

    #[test]
    fn squash_gradients_are_finite_everywhere(
        raw in prop::collection::vec(-50.0f64..50.0, 1..20),
        grad in prop::collection::vec(-10.0f64..10.0, 20),
        scale in 0.5f64..8.0,
    ) {
        let g = &grad[..raw.len()];
        for squash in [
            ActionSquash::Identity,
            ActionSquash::Tanh,
            ActionSquash::Softmax,
            ActionSquash::BoundedSoftmax { scale },
        ] {
            let y = squash.forward(&raw);
            let back = squash.backward(&raw, &y, g);
            prop_assert_eq!(back.len(), raw.len());
            prop_assert!(back.iter().all(|v| v.is_finite()), "{squash:?}");
        }
    }

    #[test]
    fn bounded_softmax_concentration_cap_holds(
        raw in prop::collection::vec(-1e6f64..1e6, 2..30),
        scale in 0.5f64..8.0,
    ) {
        let m = raw.len() as f64;
        let y = ActionSquash::BoundedSoftmax { scale }.forward(&raw);
        let cap = (2.0 * scale).exp() / ((2.0 * scale).exp() + (m - 1.0));
        for &v in &y {
            prop_assert!(v <= cap + 1e-9, "weight {v} above cap {cap}");
        }
    }

    #[test]
    fn softmax_squash_is_shift_invariant(
        raw in prop::collection::vec(-20.0f64..20.0, 2..10),
        shift in -50.0f64..50.0,
    ) {
        let a = ActionSquash::Softmax.forward(&raw);
        let shifted: Vec<f64> = raw.iter().map(|v| v + shift).collect();
        let b = ActionSquash::Softmax.forward(&shifted);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}
