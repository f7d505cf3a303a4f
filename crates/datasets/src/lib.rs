//! Synthetic reproductions of the 20 evaluation series of the EA-DRL paper.
//!
//! The paper evaluates on 20 real-world series from 9 domains (Table I):
//! water consumption, bike-sharing weather channels, river flow, weather,
//! solar radiation, taxi demand, wastewater NH4, appliance-energy channels
//! and European stock indices. Those datasets are proprietary or require
//! external downloads, so — per the substitution policy in `DESIGN.md` —
//! this crate generates *structurally equivalent* seeded synthetic series:
//! matching cadence, seasonal period, trend, noise regime, and (crucially
//! for a dynamic-ensemble paper) injected concept drifts and regime
//! switches.
//!
//! Every generator is fully deterministic given `(dataset id, length, seed)`,
//! so experiments are reproducible bit-for-bit.
#![forbid(unsafe_code)]

pub mod catalog;
pub mod components;

pub use catalog::{catalog, generate, DatasetId, DatasetSpec};
pub use components::SeriesBuilder;
