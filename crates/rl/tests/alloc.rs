//! Counting-allocator proofs of two allocation contracts at the paper's
//! shape (ω = 10, a 43-member pool):
//! - while the replay ring fills, a push from borrowed slices allocates
//!   only the 64 KiB block its row starts, one per 130 pushes, over as
//!   many transitions as a serve_bench warm-up restart stores (50
//!   episodes of 62 steps);
//! - a DDPG update allocates nothing after warm-up: replay sampling,
//!   staging, the target pass and its sidecar handoff, both network
//!   updates and the Polyak sync. It runs once with the target pass
//!   inline and once on the sidecar's helper thread.
//!
//! The counter is global, so the helper thread's allocations count too;
//! that is why this binary holds exactly ONE test (a second test running
//! beside it would count into the same window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eadrl_par::Placement;
use eadrl_rl::{DdpgAgent, DdpgConfig, ReplayBuffer, Transition};
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

/// The transitions one warm-up restart stores: 50 episodes of 62 steps.
const RESTART_PUSHES: usize = 3_100;

/// One transition at the paper's shape, owned so that a measured window
/// only pushes it by reference: a softmax-like action and a rank-valued
/// reward, terminal every 11th step.
struct Sample {
    state: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_state: Vec<f64>,
    done: bool,
}

impl Sample {
    fn new(rng: &mut DetRng, i: usize) -> Self {
        let state: Vec<f64> = (0..SD).map(|_| rng.random_range(-1.0..1.0)).collect();
        let next_state: Vec<f64> = (0..SD).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut action: Vec<f64> = (0..AD).map(|_| rng.random_range(0.0..1.0)).collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        Sample {
            state,
            action,
            reward: rng.random_range(1..AD + 1) as f64 / AD as f64,
            next_state,
            done: i.is_multiple_of(11),
        }
    }

    fn view(&self) -> Transition<'_> {
        Transition {
            state: &self.state,
            action: &self.action,
            reward: self.reward,
            next_state: &self.next_state,
            done: self.done,
        }
    }
}

#[test]
fn paper_shape_pushes_allocate_only_row_blocks_and_updates_nothing() {
    // The replay rows, at EA-DRL's capacity: the first push fixes the row
    // shape and allocates the first block. Blocks hold 130 paper-shape
    // rows and arrive with their first row, so pushes 2 to 3,101 start
    // the 23 blocks at slots 130, 260, …, 2,990, and every other push
    // copies into room a block already has.
    let mut rng = DetRng::seed_from_u64(0x3100);
    let samples: Vec<Sample> = (0..=RESTART_PUSHES)
        .map(|i| Sample::new(&mut rng, i))
        .collect();
    let mut buffer = ReplayBuffer::new(DdpgConfig::default().buffer_capacity);
    buffer.push(samples[0].view());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for s in &samples[1..] {
        buffer.push(s.view());
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(buffer.len(), RESTART_PUSHES + 1);
    assert_eq!(
        allocated, 23,
        "{RESTART_PUSHES} paper-shape pushes allocated {allocated} times"
    );

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
            agent.observe(Sample::new(&mut rng, i).view());
        }
        for i in 0..20 {
            agent.observe(Sample::new(&mut rng, CAPACITY + i).view());
            agent.update().expect("buffer holds a batch");
        }
        // The measured transitions are built before the window opens;
        // inside it, each push copies one into the row it overwrites.
        let fresh: Vec<Sample> = (0..100)
            .map(|i| Sample::new(&mut rng, CAPACITY + 20 + i))
            .collect();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for s in &fresh {
            agent.observe(s.view());
            agent.update().expect("buffer holds a batch");
        }
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "{placement:?}: 100 paper-shape updates allocated {allocated} times"
        );
    }
}
