//! # freshen-workload
//!
//! Synthetic workload generation for the freshening experiments: the
//! probability distributions the paper draws on (Zipf for user interest,
//! Gamma for change frequencies, Pareto for object sizes, Poisson processes
//! for update/access arrivals) and a [`scenario::Scenario`] builder that
//! assembles them into [`freshen_core::Problem`] instances matching the
//! paper's experiment setups (its Table 2 and Table 3).
//!
//! All samplers are implemented from scratch on top of the uniform draws
//! of [`freshen_core::rng::SplitMix64`]: Marsaglia–Tsang for Gamma,
//! Marsaglia polar for normals, inverse transform for Pareto and
//! Exponential, and cumulative-table inversion for Zipf. Every sampler is
//! unit-tested against its analytic moments.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dist;
pub mod scenario;
#[cfg(test)]
mod stats;
pub mod tiers;
pub mod trace;

pub use scenario::{Alignment, Scenario, SizeDist, StressScenario};
pub use tiers::{parallel_relay, two_tier_chain, TieredScenario};
