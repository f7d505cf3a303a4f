//! Reinforcement-learning substrate: environments, replay buffers, noise
//! processes and a from-scratch DDPG agent.
//!
//! The EA-DRL paper learns its ensemble-combination policy with the deep
//! deterministic policy gradient algorithm of Lillicrap et al. (reference \[10\] of the
//! paper) and modifies exactly one ingredient: replay transitions are
//! sampled **diversity-first** — half above the median reward, half below
//! (Eq. 4) — instead of uniformly. This crate implements
//!
//! * [`Environment`] — the minimal episodic-MDP interface,
//! * [`ReplayBuffer`] with both [`SamplingStrategy::Uniform`] (the original
//!   DDPG) and [`SamplingStrategy::Diversity`] (the paper's Eq. 4),
//! * [`OrnsteinUhlenbeck`] exploration noise,
//! * [`DdpgAgent`] — actor/critic MLPs with target networks, Polyak soft
//!   updates and the deterministic-policy-gradient actor update, plus the
//!   [`ActionSquash`] output map (the paper squashes policy outputs onto
//!   the probability simplex so the weights are positive and sum to one).
#![forbid(unsafe_code)]

pub mod ddpg;
pub mod env;
pub mod noise;
pub mod replay;
pub mod squash;

pub use ddpg::{actor_network, DdpgAgent, DdpgConfig, EpisodeStats, UpdateStats};
pub use env::Environment;
pub use noise::OrnsteinUhlenbeck;
pub use replay::{Batch, ReplayBuffer, SamplingStrategy, Transition};
pub use squash::ActionSquash;
