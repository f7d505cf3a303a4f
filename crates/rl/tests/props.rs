//! Property-based tests for the RL substrate.

use eadrl_ptest::prelude::*;
use eadrl_rl::{ActionSquash, ReplayBuffer, SamplingStrategy, Transition};
use eadrl_rng::DetRng;

fn transition(reward: f64) -> Transition {
    Transition {
        state: vec![0.0],
        action: vec![0.0],
        reward,
        next_state: vec![0.0],
        done: false,
    }
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
