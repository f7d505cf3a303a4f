//! Fixed-capacity sliding windows for the serving hot path.
//!
//! Every sliding window in the serving loop used to be a `Vec` shifted
//! with `remove(0)` — an O(n) memmove per step, six times per served
//! forecast. The two ring types here replace all of those sites with
//! amortized O(1) slides and zero steady-state allocation, while keeping
//! the *logical* oldest-to-newest order identical to the shifted `Vec`,
//! so every consumer sees the same values in the same order and outputs
//! stay bitwise equal.
//!
//! * [`SlideWindow`] — a window of `f64` values that is always readable
//!   as one contiguous slice (the state-normalization and tail-slicing
//!   callers need `&[f64]`). It keeps a backing buffer of twice the
//!   capacity and compacts with a single `copy_within` once per lap.
//! * [`StepRing`] — a ring of `(predictions, actual)` steps with slot
//!   reuse: recording a step rewrites a pre-existing row in place
//!   instead of allocating a fresh `Vec` per observation.

/// A fixed-capacity sliding window of `f64` values, contiguous-slice
/// readable.
///
/// Semantically identical to a `Vec<f64>` driven by
/// `push(v); if len > cap { remove(0); }`, but [`SlideWindow::slide`] is
/// amortized O(1): the window lives inside a backing buffer of
/// `2 * capacity` and the write cursor walks forward, compacting the
/// live region to the front with one `copy_within` only when it reaches
/// the physical end — once per `capacity` slides.
#[derive(Debug, Clone)]
pub struct SlideWindow {
    buf: Vec<f64>,
    cap: usize,
    head: usize,
    len: usize,
}

impl SlideWindow {
    /// Creates an empty window that holds at most `capacity` values.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlideWindow {
            buf: vec![0.0; 2 * capacity],
            cap: capacity,
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of values the window retains.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`, evicting the oldest value once at capacity —
    /// the `remove(0)`-free equivalent of the classic window shift.
    pub fn slide(&mut self, value: f64) {
        if self.len == self.cap {
            self.head += 1;
            self.len -= 1;
        }
        if self.head + self.len == self.buf.len() {
            self.buf.copy_within(self.head.., 0);
            self.head = 0;
        }
        self.buf[self.head + self.len] = value;
        self.len += 1;
    }

    /// Replaces the contents with `values` (the trailing `capacity` of
    /// them when longer) — window (re)seeding at episode/warm-up start.
    pub fn assign(&mut self, values: &[f64]) {
        let src = if values.len() > self.cap {
            &values[values.len() - self.cap..]
        } else {
            values
        };
        self.head = 0;
        self.len = src.len();
        self.buf[..src.len()].copy_from_slice(src);
    }

    /// Removes every value (capacity is retained).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The stored values, oldest first, as one contiguous slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.head..self.head + self.len]
    }
}

impl std::ops::Deref for SlideWindow {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

/// A fixed-capacity ring of `(predictions, actual)` steps with slot
/// reuse.
///
/// Semantically identical to a `Vec<(Vec<f64>, f64)>` driven by
/// `push(...); if len > cap { remove(0); }`, but [`StepRing::record`]
/// rewrites a pre-existing slot in place (`clear` + `extend_from_slice`
/// on the retained row allocation), so a saturated ring records steps
/// without allocating. Iteration yields steps oldest first, matching
/// the shifted `Vec`'s order exactly.
#[derive(Debug, Clone)]
pub struct StepRing {
    slots: Vec<(Vec<f64>, f64)>,
    head: usize,
    len: usize,
}

impl StepRing {
    /// Creates an empty ring that retains at most `capacity` steps. All
    /// slots are created up front so recording never grows the ring.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        StepRing {
            slots: (0..capacity).map(|_| (Vec::new(), 0.0)).collect(),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of steps the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no step has been stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one step, evicting the oldest once at capacity. The
    /// evicted slot's row allocation is reused for the new step.
    pub fn record(&mut self, preds: &[f64], actual: f64) {
        let cap = self.slots.len();
        let idx = if self.len == cap {
            let idx = self.head;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            idx
        } else {
            let mut idx = self.head + self.len;
            if idx >= cap {
                idx -= cap;
            }
            self.len += 1;
            idx
        };
        let slot = &mut self.slots[idx];
        slot.0.clear();
        slot.0.extend_from_slice(preds);
        slot.1 = actual;
    }

    /// The `i`-th stored step, oldest first.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> &(Vec<f64>, f64) {
        assert!(
            i < self.len,
            "step index {i} out of bounds (len {})",
            self.len
        );
        let mut idx = self.head + i;
        if idx >= self.slots.len() {
            idx -= self.slots.len();
        }
        &self.slots[idx]
    }

    /// Iterates the stored steps oldest first — the same order a shifted
    /// `Vec` presents, so windowed statistics accumulate identically.
    pub fn iter(&self) -> impl Iterator<Item = &(Vec<f64>, f64)> {
        let first = (self.slots.len() - self.head).min(self.len);
        self.slots[self.head..self.head + first]
            .iter()
            .chain(self.slots[..self.len - first].iter())
    }

    /// Removes every step (slot allocations are retained).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the shifted Vec every ring replaces.
    fn shifted(values: &[f64], cap: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for &x in values {
            v.push(x);
            if v.len() > cap {
                v.remove(0);
            }
        }
        v
    }

    #[test]
    fn slide_matches_shifted_vec_across_many_laps() {
        for cap in [1, 2, 3, 7] {
            let mut w = SlideWindow::new(cap);
            let mut fed = Vec::new();
            for i in 0..50 {
                let x = (i as f64) * 1.25 - 3.0;
                fed.push(x);
                w.slide(x);
                assert_eq!(
                    w.as_slice(),
                    shifted(&fed, cap).as_slice(),
                    "cap {cap} step {i}"
                );
            }
            assert_eq!(w.len(), cap);
            assert_eq!(w.capacity(), cap);
        }
    }

    #[test]
    fn assign_seeds_and_truncates_to_tail() {
        let mut w = SlideWindow::new(3);
        w.assign(&[1.0, 2.0]);
        assert_eq!(w.as_slice(), &[1.0, 2.0]);
        w.assign(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(w.as_slice(), &[3.0, 4.0, 5.0]);
        w.slide(6.0);
        assert_eq!(w.as_slice(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn deref_exposes_slice_ops() {
        let mut w = SlideWindow::new(5);
        w.assign(&[10.0, 20.0, 30.0]);
        assert_eq!(w[1], 20.0);
        assert_eq!(&w[1..], &[20.0, 30.0]);
        assert_eq!(w.iter().sum::<f64>(), 60.0);
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_window_panics() {
        let _ = SlideWindow::new(0);
    }

    #[test]
    fn ring_matches_shifted_vec_of_pairs() {
        let cap = 3;
        let mut ring = StepRing::new(cap);
        let mut reference: Vec<(Vec<f64>, f64)> = Vec::new();
        for i in 0..11 {
            let preds = vec![i as f64, i as f64 * 2.0];
            let actual = i as f64 + 0.5;
            ring.record(&preds, actual);
            reference.push((preds, actual));
            if reference.len() > cap {
                reference.remove(0);
            }
            let got: Vec<&(Vec<f64>, f64)> = ring.iter().collect();
            let want: Vec<&(Vec<f64>, f64)> = reference.iter().collect();
            assert_eq!(got, want, "step {i}");
            assert_eq!(ring.len(), reference.len());
            for (j, step) in reference.iter().enumerate() {
                assert_eq!(ring.get(j), step);
            }
        }
    }

    #[test]
    fn ring_reuses_slot_allocations() {
        let mut ring = StepRing::new(2);
        ring.record(&[1.0, 2.0, 3.0], 0.0);
        ring.record(&[4.0, 5.0, 6.0], 1.0);
        let before: Vec<*const f64> = (0..2).map(|i| ring.get(i).0.as_ptr()).collect();
        // A full lap rewrites both slots in place.
        ring.record(&[7.0, 8.0, 9.0], 2.0);
        ring.record(&[10.0, 11.0, 12.0], 3.0);
        let after: Vec<*const f64> = (0..2).map(|i| ring.get(i).0.as_ptr()).collect();
        let mut reused = before.clone();
        reused.sort();
        let mut now = after.clone();
        now.sort();
        assert_eq!(reused, now, "slot rows must be reused, not reallocated");
        assert_eq!(ring.get(0).0, vec![7.0, 8.0, 9.0]);
        assert_eq!(ring.get(1).0, vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn ring_clear_keeps_capacity() {
        let mut ring = StepRing::new(4);
        ring.record(&[1.0], 1.0);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 4);
        ring.record(&[2.0], 2.0);
        assert_eq!(ring.get(0).1, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_ring_panics() {
        let _ = StepRing::new(0);
    }
}
