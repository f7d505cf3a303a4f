//! Counting-allocator proof that a paper-shape DDPG update allocates
//! nothing after warm-up: replay sampling, staging, the target pass and
//! its sidecar handoff, both network updates and the Polyak sync. It
//! runs once with the target pass inline and once on the sidecar's
//! helper thread.
//!
//! The counter is global, so the helper thread's allocations count too;
//! that is why this binary holds exactly ONE test (a second test running
//! beside it would count into the same window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eadrl_par::Placement;
use eadrl_rl::{DdpgAgent, DdpgConfig, Transition};
use eadrl_rng::DetRng;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Passes every request through to the system allocator, counting
/// allocations and reallocations (not deallocations) on every thread.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// State ω = 10, a 43-member pool, batch 32, diversity sampling.
const SD: usize = 10;
const AD: usize = 43;
const CAPACITY: usize = 200;

/// One transition at the paper's shape: a softmax-like action and a
/// rank-valued reward, terminal every 11th step.
fn transition(rng: &mut DetRng, i: usize) -> Transition {
    let state: Vec<f64> = (0..SD).map(|_| rng.random_range(-1.0..1.0)).collect();
    let next_state: Vec<f64> = (0..SD).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut action: Vec<f64> = (0..AD).map(|_| rng.random_range(0.0..1.0)).collect();
    let sum: f64 = action.iter().sum();
    for a in action.iter_mut() {
        *a /= sum;
    }
    Transition {
        state,
        action,
        reward: rng.random_range(1..AD + 1) as f64 / AD as f64,
        next_state,
        done: i.is_multiple_of(11),
    }
}

#[test]
fn paper_shape_updates_allocate_nothing_after_warm_up() {
    for placement in [Placement::Inline, Placement::Helper] {
        let config = DdpgConfig {
            buffer_capacity: CAPACITY,
            hidden: vec![32, 32],
            seed: 0x0e4d,
            ..DdpgConfig::default()
        };
        let mut agent = DdpgAgent::with_placement(SD, AD, config, placement);
        let mut rng = DetRng::seed_from_u64(0x9a9e);
        // Warm-up: fill the buffer, then update until every workspace,
        // index pool, Adam moment and the helper thread exist.
        for i in 0..CAPACITY {
            agent.observe(transition(&mut rng, i));
        }
        for i in 0..20 {
            agent.observe(transition(&mut rng, CAPACITY + i));
            agent.update().expect("buffer holds a batch");
        }
        // The measured transitions are built before the window opens;
        // inside it, each push only moves one in (and drops the one it
        // overwrites).
        let fresh: Vec<Transition> = (0..100)
            .map(|i| transition(&mut rng, CAPACITY + 20 + i))
            .collect();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for t in fresh {
            agent.observe(t);
            agent.update().expect("buffer holds a batch");
        }
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "{placement:?}: 100 paper-shape updates allocated {allocated} times"
        );
    }
}
