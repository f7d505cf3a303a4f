//! Experience replay with uniform and diversity (median-split) sampling.

use eadrl_rng::DetRng;

/// One stored transition `(s, a, r, s', done)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f64>,
    /// The executed action.
    pub action: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// Resulting state.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at `next_state`.
    pub done: bool,
}

/// How mini-batches are drawn from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform random sampling — the original DDPG of Lillicrap et al.
    Uniform,
    /// The paper's diversity sampling (Eq. 4): half of the batch from
    /// transitions with reward ≥ median, half from below-median ones, so
    /// the critic and actor always see both good and bad actions.
    Diversity,
}

/// Fixed-capacity ring-buffer of transitions.
///
/// The buffer maintains Eq. 4's reward median: the stored rewards are
/// kept in ascending order, updated on every push and overwrite, so
/// diversity sampling and the telemetry read the median off the middle.
///
/// **NaN rewards** take no part in the median: it is the median of the
/// stored non-NaN rewards, and `NaN` when there are none. A NaN never
/// compares at or above the median, so its transition always falls in
/// the below-median half that diversity sampling draws from.
///
/// ```
/// use eadrl_rl::{ReplayBuffer, SamplingStrategy, Transition};
/// use eadrl_rng::DetRng;
///
/// let mut buffer = ReplayBuffer::new(100);
/// for reward in [0.1, 0.9, 0.5] {
///     buffer.push(Transition {
///         state: vec![0.0], action: vec![1.0],
///         reward, next_state: vec![0.0], done: false,
///     });
/// }
/// assert_eq!(buffer.reward_median(), 0.5);
/// let mut rng = DetRng::seed_from_u64(0);
/// let batch = buffer.sample(2, SamplingStrategy::Diversity, &mut rng);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    storage: Vec<Transition>,
    next_slot: usize,
    /// `storage[i].reward` for every slot, contiguous for the median
    /// split's scan.
    rewards: Vec<f64>,
    /// The stored non-NaN rewards in ascending [`f64::total_cmp`] order.
    sorted: Vec<f64>,
    /// Reusable index pools for the median split (cleared, capacity kept).
    high: Vec<usize>,
    low: Vec<usize>,
    /// The last draw's slot indices (cleared, capacity kept).
    drawn: Vec<usize>,
}

/// A drawn mini-batch: slot indices into the buffer, in draw order, and
/// the transitions they name.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    storage: &'a [Transition],
    slots: &'a [usize],
}

impl<'a> Batch<'a> {
    /// Number of drawn transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing was drawn (an empty buffer or `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The drawn transitions, in draw order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Transition> + 'a {
        let storage = self.storage;
        self.slots.iter().map(move |&slot| &storage[slot])
    }
}

impl ReplayBuffer {
    /// Creates an empty buffer holding at most `capacity` transitions
    /// (`N_max` in the paper).
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        let reserve = capacity.min(4096);
        ReplayBuffer {
            capacity,
            storage: Vec::with_capacity(reserve),
            next_slot: 0,
            rewards: Vec::with_capacity(reserve),
            sorted: Vec::with_capacity(reserve),
            high: Vec::new(),
            low: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores a transition, overwriting the oldest once at capacity, and
    /// moves its reward into (and the overwritten one out of) the sorted
    /// rewards.
    pub fn push(&mut self, t: Transition) {
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

    /// Draws `n` transitions (with replacement) using `strategy`.
    ///
    /// Takes `&mut self` so the draw can reuse the buffer's own scratch:
    /// the drawn slot indices and diversity sampling's index pools. It
    /// reads the maintained median and splits the slots with one scan of
    /// the contiguous rewards. At a steady batch size and buffer length
    /// the call allocates nothing.
    ///
    /// Diversity sampling degrades gracefully: when every reward equals the
    /// median (e.g. constant rewards) one of the halves would be empty, and
    /// the call falls back to uniform sampling for the missing half.
    pub fn sample(&mut self, n: usize, strategy: SamplingStrategy, rng: &mut DetRng) -> Batch<'_> {
        self.drawn.clear();
        if !self.storage.is_empty() {
            match strategy {
                SamplingStrategy::Uniform => {
                    for _ in 0..n {
                        let slot = rng.random_range(0..self.storage.len());
                        self.drawn.push(slot); // eadrl-lint: allow(hot-path-alloc): push into a cleared, capacity-retaining Vec — allocation-free at steady state
                    }
                }
                SamplingStrategy::Diversity => {
                    let median = self.reward_median();
                    self.high.clear();
                    self.low.clear();
                    // Either pool may hold every slot: sized once the
                    // buffer is full, neither grows again.
                    self.high.reserve(self.rewards.len());
                    self.low.reserve(self.rewards.len());
                    for (i, &reward) in self.rewards.iter().enumerate() {
                        if reward >= median {
                            self.high.push(i); // eadrl-lint: allow(hot-path-alloc): cleared index pool; grows only while the buffer fills
                        } else {
                            self.low.push(i); // eadrl-lint: allow(hot-path-alloc): cleared index pool; grows only while the buffer fills
                        }
                    }
                    let half = n / 2;
                    for (pool, count) in [(&self.high, half), (&self.low, n - half)] {
                        for _ in 0..count {
                            let slot = if pool.is_empty() {
                                rng.random_range(0..self.storage.len())
                            } else {
                                pool[rng.random_range(0..pool.len())]
                            };
                            self.drawn.push(slot); // eadrl-lint: allow(hot-path-alloc): push into a cleared, capacity-retaining Vec — allocation-free at steady state
                        }
                    }
                }
            }
        }
        Batch {
            storage: &self.storage,
            slots: &self.drawn,
        }
    }

    /// Fraction of stored transitions whose reward is at or above the
    /// reward median (`NaN` when empty) — the occupancy of the "good"
    /// half that diversity sampling draws from. Near 1.0 it signals a
    /// degenerate reward landscape where the median split collapses.
    pub fn above_median_fraction(&self) -> f64 {
        if self.storage.is_empty() {
            return f64::NAN;
        }
        // With no non-NaN reward the median is NaN and nothing is above it.
        let median = self.reward_median();
        let above = self.sorted.len() - self.sorted.partition_point(|&x| x < median);
        above as f64 / self.storage.len() as f64
    }

    /// Median of the stored non-NaN rewards (`NaN` when there are none),
    /// read off the maintained order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_ptest::prelude::*;

    fn t(reward: f64) -> Transition {
        Transition {
            state: vec![0.0],
            action: vec![0.0],
            reward,
            next_state: vec![0.0],
            done: false,
        }
    }

    #[test]
    fn ring_overwrite_keeps_capacity() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f64));
        }
        assert_eq!(buf.len(), 3);
        // Oldest (0, 1) overwritten by 3 and 4.
        let rewards: Vec<f64> = buf.storage.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
    }

    #[test]
    fn uniform_sampling_covers_buffer() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(t(i as f64));
        }
        let mut rng = DetRng::seed_from_u64(0);
        let batch = buf.sample(200, SamplingStrategy::Uniform, &mut rng);
        assert_eq!(batch.len(), 200);
        let distinct: std::collections::BTreeSet<i64> =
            batch.iter().map(|x| x.reward as i64).collect();
        assert!(distinct.len() >= 8, "uniform sample too concentrated");
    }

    #[test]
    fn diversity_sampling_balances_median_halves() {
        let mut buf = ReplayBuffer::new(100);
        // 90 bad transitions, 10 good ones.
        for _ in 0..90 {
            buf.push(t(0.0));
        }
        for _ in 0..10 {
            buf.push(t(10.0));
        }
        let mut rng = DetRng::seed_from_u64(1);
        let batch = buf.sample(100, SamplingStrategy::Diversity, &mut rng);
        let high = batch.iter().filter(|x| x.reward >= 5.0).count();
        // Exactly half the batch must come from the >= median pool.
        // Median of (90 zeros, 10 tens) = 0, so "high" pool = everything;
        // the balancing shows up through the below-median half being empty
        // and falling back. Instead check a clean split:
        let _ = high;
        let mut buf2 = ReplayBuffer::new(100);
        for i in 0..50 {
            buf2.push(t(i as f64)); // rewards 0..49, median 24.5
        }
        let batch2 = buf2.sample(100, SamplingStrategy::Diversity, &mut rng);
        let high2 = batch2.iter().filter(|x| x.reward >= 24.5).count();
        assert_eq!(high2, 50, "diversity batch must be half high, half low");
    }

    #[test]
    fn diversity_sampling_handles_constant_rewards() {
        let mut buf = ReplayBuffer::new(10);
        for _ in 0..10 {
            buf.push(t(1.0));
        }
        let mut rng = DetRng::seed_from_u64(2);
        let batch = buf.sample(8, SamplingStrategy::Diversity, &mut rng);
        assert_eq!(batch.len(), 8);
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let mut buf = ReplayBuffer::new(5);
        let mut rng = DetRng::seed_from_u64(3);
        assert!(buf
            .sample(4, SamplingStrategy::Uniform, &mut rng)
            .is_empty());
        assert!(buf.reward_median().is_nan());
    }

    #[test]
    fn diversity_sample_rewards_are_pinned() {
        // Regression pin for the cached-median refactor: the exact draw
        // sequence of a seeded diversity sample must never change, or
        // every committed training baseline shifts.
        let mut buf = ReplayBuffer::new(16);
        for i in 0..10 {
            buf.push(t(i as f64)); // rewards 0..9, median 4.5
        }
        let mut rng = DetRng::seed_from_u64(42);
        let drawn: Vec<f64> = buf
            .sample(6, SamplingStrategy::Diversity, &mut rng)
            .iter()
            .map(|x| x.reward)
            .collect();
        // First half from the >= 4.5 pool, second half from below it.
        assert!(drawn[..3].iter().all(|&r| r >= 4.5));
        assert!(drawn[3..].iter().all(|&r| r < 4.5));
        assert_eq!(drawn, vec![6.0, 8.0, 9.0, 0.0, 2.0, 0.0]);
    }

    /// The sort the maintained order replaced: sort a copy of the
    /// rewards and take the middle (`NaN` when empty). NaN rewards are
    /// dropped first, per the buffer's NaN rule.
    fn median_of_unsorted(rewards: &mut Vec<f64>) -> f64 {
        rewards.retain(|r| !r.is_nan());
        if rewards.is_empty() {
            return f64::NAN;
        }
        rewards.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = rewards.len();
        if n % 2 == 1 {
            rewards[n / 2]
        } else {
            0.5 * (rewards[n / 2 - 1] + rewards[n / 2])
        }
    }

    /// The sort-per-call diversity sampler the maintained median
    /// replaced, returning slot indices: the same split and draws.
    fn reference_diversity(storage: &[Transition], n: usize, rng: &mut DetRng) -> Vec<usize> {
        let mut rewards: Vec<f64> = storage.iter().map(|t| t.reward).collect();
        let median = median_of_unsorted(&mut rewards);
        let (mut high, mut low) = (Vec::new(), Vec::new());
        for (i, t) in storage.iter().enumerate() {
            if t.reward >= median {
                high.push(i);
            } else {
                low.push(i);
            }
        }
        let half = n / 2;
        let mut out = Vec::with_capacity(n);
        for (pool, count) in [(&high, half), (&low, n - half)] {
            for _ in 0..count {
                out.push(if pool.is_empty() {
                    rng.random_range(0..storage.len())
                } else {
                    pool[rng.random_range(0..pool.len())]
                });
            }
        }
        out
    }

    /// A reward drawn from `op`: mostly rank-valued (`k / 7`, the shape
    /// of the normalized Eq. 3 reward) and small-integer ties, plus
    /// `±0.0`, distinct values and the odd NaN.
    fn reward_for(op: u64) -> f64 {
        let v = op / 5;
        match op % 5 {
            0 | 1 => (1 + v % 7) as f64 / 7.0,
            2 => (v % 3) as f64 - 1.0,
            3 if v.is_multiple_of(2) => 0.0,
            3 => -0.0,
            _ if v.is_multiple_of(6) => f64::NAN,
            _ => (op as f64 * 0.618).sin(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn maintained_median_and_diversity_batches_match_the_sort_reference(
            capacity in 1usize..10,
            ops in prop::collection::vec(0u64..1_000_000, 1..120),
            seed in 0u64..1000,
        ) {
            // Pushes at a small capacity wrap the ring many times; one op
            // in four draws a diversity batch instead of pushing.
            let mut buf = ReplayBuffer::new(capacity);
            let mut rng = DetRng::seed_from_u64(seed);
            let mut rng_ref = DetRng::seed_from_u64(seed);
            for &op in &ops {
                if op % 4 == 3 && !buf.is_empty() {
                    let n = 1 + (op / 4 % 9) as usize;
                    let drawn = buf
                        .sample(n, SamplingStrategy::Diversity, &mut rng)
                        .slots
                        .to_vec();
                    let expect = reference_diversity(&buf.storage, n, &mut rng_ref);
                    prop_assert_eq!(drawn, expect);
                } else {
                    buf.push(t(reward_for(op)));
                }
                let mut rewards: Vec<f64> = buf.storage.iter().map(|x| x.reward).collect();
                let mut in_order: Vec<f64> = rewards.iter().copied().filter(|r| !r.is_nan()).collect();
                in_order.sort_by(f64::total_cmp);
                prop_assert_eq!(
                    buf.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    in_order.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                let (got, want) = (buf.reward_median(), median_of_unsorted(&mut rewards));
                prop_assert!(got == want || (got.is_nan() && want.is_nan()), "{got} vs {want}");
                let above = buf.storage.iter().filter(|x| x.reward >= want).count();
                prop_assert_eq!(
                    buf.above_median_fraction().to_bits(),
                    (above as f64 / buf.len() as f64).to_bits()
                );
            }
        }
    }

    #[test]
    fn nan_rewards_sit_outside_the_median_and_below_it() {
        let mut buf = ReplayBuffer::new(5);
        for r in [1.0, f64::NAN, 3.0, f64::NAN, 2.0] {
            buf.push(t(r));
        }
        // The median of {1, 2, 3}; the NaN transitions count toward the
        // length but never at or above the median.
        assert_eq!(buf.reward_median(), 2.0);
        assert_eq!(buf.above_median_fraction(), 0.4);
        let mut rng = DetRng::seed_from_u64(5);
        let drawn: Vec<f64> = buf
            .sample(40, SamplingStrategy::Diversity, &mut rng)
            .iter()
            .map(|x| x.reward)
            .collect();
        assert!(drawn[..20].iter().all(|&r| r >= 2.0));
        assert!(drawn[20..].iter().all(|&r| r.is_nan() || r < 2.0));
        assert!(drawn[20..].iter().any(|r| r.is_nan()));
        // Overwriting a NaN slot or a numeric one keeps the order exact.
        buf.push(t(7.0)); // replaces 1.0
        buf.push(t(f64::NAN)); // replaces the first NaN
        assert_eq!(buf.sorted, vec![2.0, 3.0, 7.0]);
        assert_eq!(buf.reward_median(), 3.0);
        // A buffer of NaNs has no median, and nothing is above it.
        let mut nans = ReplayBuffer::new(3);
        nans.push(t(f64::NAN));
        assert!(nans.reward_median().is_nan());
        assert_eq!(nans.above_median_fraction(), 0.0);
        assert_eq!(
            nans.sample(4, SamplingStrategy::Diversity, &mut rng).len(),
            4
        );
    }

    #[test]
    fn median_odd_and_even() {
        let mut buf = ReplayBuffer::new(10);
        buf.push(t(1.0));
        buf.push(t(3.0));
        buf.push(t(2.0));
        assert_eq!(buf.reward_median(), 2.0);
        buf.push(t(4.0));
        assert_eq!(buf.reward_median(), 2.5);
    }

    #[test]
    fn above_median_fraction_tracks_split() {
        let mut buf = ReplayBuffer::new(10);
        assert!(buf.above_median_fraction().is_nan());
        for i in 0..4 {
            buf.push(t(i as f64)); // rewards 0,1,2,3 — median 1.5
        }
        assert_eq!(buf.above_median_fraction(), 0.5);
        for _ in 0..4 {
            buf.push(t(3.0)); // now most mass sits at the top
        }
        assert!(buf.above_median_fraction() >= 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
