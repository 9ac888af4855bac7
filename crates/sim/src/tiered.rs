//! Monte-Carlo validation of the composed-freshness recursion: simulate
//! version propagation through a relay [`Topology`] event by event and
//! measure edge freshness directly, so a tiered schedule can be scored
//! against the analytic prediction of
//! [`Topology::node_freshness`].
//!
//! Each element evolves independently (changes and polls are
//! independent processes), so the simulator runs one element at a time:
//! the source's copy changes at Poisson times with rate `λᵢ`; every
//! link polls its upstream node — at Poisson times with rate `f` under
//! [`SyncPolicy::Poisson`], at period `1/f` with an independent uniform
//! phase under [`SyncPolicy::FixedOrder`] — and a poll adopts the
//! upstream copy's version when it is newer (version-aware merging: a
//! stale parent never overwrites a fresher copy). A node is *fresh*
//! when its version matches the source's current one; the simulator
//! integrates the exact fresh-time fraction between events (no
//! sampling grid) over the post-warmup window.
//!
//! For chains and trees the recursion is exact, so measured and
//! analytic edge PF converge at the Monte-Carlo `1/√T` rate; for
//! re-merging DAGs the recursion's independence approximation is
//! slightly optimistic and the measured value sits below it — the gap
//! this simulator exists to quantify.

use freshen_core::error::Result;
use freshen_core::exec::Executor;
use freshen_core::numeric::NeumaierSum;
use freshen_core::policy::{sum_terms, SyncPolicy};
use freshen_core::problem::Problem;
use freshen_core::rng::SplitMix64;
use freshen_core::topology::{TieredSchedule, Topology};

/// Configuration for [`simulate_tiered`].
#[derive(Debug, Clone, Copy)]
pub struct TieredSimConfig {
    /// Measured window length (after warm-up).
    pub horizon: f64,
    /// Warm-up time discarded so the stationary distribution is
    /// measured rather than the all-fresh initial condition.
    pub warmup: f64,
    /// Master seed; per-element streams derive from it deterministically.
    pub seed: u64,
    /// Independent replications averaged per element. Matters for
    /// [`SyncPolicy::FixedOrder`]: rationally-related periodic poll
    /// frequencies phase-lock, so one phase draw never ergodically
    /// covers the phase torus no matter the horizon — the analytic
    /// recursion is the phase-*ensemble* expectation, and fresh phase
    /// draws per replication are what converge to it.
    pub replications: u32,
}

impl Default for TieredSimConfig {
    fn default() -> Self {
        TieredSimConfig {
            horizon: 2_000.0,
            warmup: 50.0,
            seed: 7,
            replications: 4,
        }
    }
}

/// Measured-vs-analytic freshness of one tiered schedule.
#[derive(Debug, Clone)]
pub struct TieredSimReport {
    /// Edge PF measured by the event simulation.
    pub measured_edge_pf: f64,
    /// Edge PF predicted by the composed recursion.
    pub analytic_edge_pf: f64,
    /// Per-node measured PF.
    pub measured_node_pf: Vec<f64>,
    /// Per-node analytic PF.
    pub analytic_node_pf: Vec<f64>,
    /// Total events processed (changes + polls).
    pub events: u64,
}

impl TieredSimReport {
    /// Absolute measured-vs-analytic gap at the edge.
    pub fn edge_gap(&self) -> f64 {
        (self.measured_edge_pf - self.analytic_edge_pf).abs()
    }
}

/// One pending event stream: the next firing time plus how to draw the
/// one after it.
enum Stream {
    /// Source change process (Poisson, rate).
    Change(f64),
    /// Poll process on a link (link index, policy, frequency).
    Poll(usize, SyncPolicy, f64),
}

/// Simulate `schedule` over `topology` and measure per-node freshness.
///
/// Deterministic for a fixed config: per-element RNG streams derive
/// from `cfg.seed` and the element index only.
pub fn simulate_tiered(
    topology: &Topology,
    problem: &Problem,
    schedule: &TieredSchedule,
    policy: SyncPolicy,
    cfg: &TieredSimConfig,
) -> Result<TieredSimReport> {
    let analytic = topology.node_freshness(problem, schedule, policy)?;
    schedule.validate(topology)?;
    let reps = cfg.replications.max(1);
    let n = problem.len();
    let node_count = topology.node_count();
    let lam = problem.change_rates();
    let p = problem.access_probs();
    let t_end = cfg.warmup + cfg.horizon;

    let mut fresh_frac = vec![vec![0.0f64; n]; node_count];
    let mut events = 0u64;

    for (i, rep) in (0..n).flat_map(|i| (0..reps).map(move |r| (i, r))) {
        let stream_id = (i as u64) << 32 | rep as u64;
        let mut rng = SplitMix64::new(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream_id);
        let exp = |rng: &mut SplitMix64, rate: f64| -> f64 {
            let u = rng.next_f64();
            -(1.0 - u).ln() / rate
        };

        // Build the element's event streams: one change stream (if the
        // element ever changes) and one poll stream per carrying link
        // with a positive frequency.
        let mut streams: Vec<(f64, Stream)> = Vec::new();
        if lam[i] > 0.0 {
            let first = exp(&mut rng, lam[i]);
            streams.push((first, Stream::Change(lam[i])));
        }
        for (l, link) in topology.links().iter().enumerate() {
            let f = schedule.link_freqs[l][i];
            if !link.carries(i) || f <= 0.0 {
                continue;
            }
            let first = match policy {
                SyncPolicy::Poisson => exp(&mut rng, f),
                // Fixed-Order: periodic with an independent uniform
                // phase — the stationary version of the timetable.
                SyncPolicy::FixedOrder => rng.next_f64() / f,
            };
            streams.push((first, Stream::Poll(l, policy, f)));
        }

        // version[node] = change-time of the source version it holds;
        // everyone starts aligned at version 0 (warm-up absorbs this).
        let mut version = vec![0.0f64; node_count];
        let mut source_version = 0.0f64;
        let mut now = 0.0f64;
        let mut fresh_time = vec![0.0f64; node_count];
        // Elements never delivered to a node are permanently stale
        // there only once the source has changed; the loop below
        // handles that naturally through version comparison.

        while let Some((slot, _)) = streams
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        {
            let t = streams[slot].0;
            if t >= t_end {
                break;
            }
            // Integrate the fresh indicators over [now, t] ∩ [warmup, t_end].
            let seg = (t.min(t_end) - now.max(cfg.warmup)).max(0.0);
            if seg > 0.0 {
                for node in 0..node_count {
                    if version[node] >= source_version {
                        fresh_time[node] += seg;
                    }
                }
            }
            now = t;
            events += 1;
            match streams[slot].1 {
                Stream::Change(rate) => {
                    source_version = now;
                    version[0] = now;
                    streams[slot].0 = now + exp(&mut rng, rate);
                }
                Stream::Poll(l, policy, f) => {
                    let link = &topology.links()[l];
                    if version[link.from] > version[link.to] {
                        version[link.to] = version[link.from];
                    }
                    streams[slot].0 = now
                        + match policy {
                            SyncPolicy::Poisson => exp(&mut rng, f),
                            SyncPolicy::FixedOrder => 1.0 / f,
                        };
                }
            }
        }
        // Tail segment to the horizon.
        let seg = (t_end - now.max(cfg.warmup)).max(0.0);
        if seg > 0.0 {
            for node in 0..node_count {
                if version[node] >= source_version {
                    fresh_time[node] += seg;
                }
            }
        }
        for node in 0..node_count {
            fresh_frac[node][i] += fresh_time[node] / (cfg.horizon * reps as f64);
        }
    }

    let weigh = |rows: &[Vec<f64>]| -> Vec<f64> {
        rows.iter()
            .map(|row| sum_terms([p, row], &Executor::serial(), |[p, f]| [p * f])[0])
            .collect()
    };
    let measured_node_pf = weigh(&fresh_frac);
    let analytic_node_pf = weigh(&analytic);
    let mean_over_sinks = |pf: &[f64]| -> f64 {
        let mut acc = NeumaierSum::new();
        for &s in topology.sinks() {
            acc.add(pf[s]);
        }
        acc.total() / topology.sinks().len() as f64
    };
    Ok(TieredSimReport {
        measured_edge_pf: mean_over_sinks(&measured_node_pf),
        analytic_edge_pf: mean_over_sinks(&analytic_node_pf),
        measured_node_pf,
        analytic_node_pf,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_setup(n: usize) -> (Topology, Problem, TieredSchedule) {
        let topo = Topology::builder()
            .source("origin")
            .tier("relay", 10.0)
            .tier("edge", 8.0)
            .link("origin", "relay")
            .link("relay", "edge")
            .build(n)
            .unwrap();
        let problem = Problem::builder()
            .change_rates((0..n).map(|i| 0.4 + (i % 5) as f64 * 0.5).collect())
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .bandwidth(10.0)
            .build()
            .unwrap();
        let mut schedule = TieredSchedule::zero(&topo);
        for i in 0..n {
            schedule.link_freqs[0][i] = 1.0 + (i % 3) as f64;
            schedule.link_freqs[1][i] = 0.5 + (i % 2) as f64;
        }
        (topo, problem, schedule)
    }

    #[test]
    fn chain_measurement_matches_the_analytic_product() {
        // The recursion is exact on chains, so the only gap is the
        // Monte-Carlo error — O(1/√horizon) with a fixed seed.
        let (topo, problem, schedule) = chain_setup(8);
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let report = simulate_tiered(
                &topo,
                &problem,
                &schedule,
                policy,
                &TieredSimConfig {
                    horizon: 1_000.0,
                    warmup: 50.0,
                    seed: 11,
                    replications: 12,
                },
            )
            .unwrap();
            assert!(
                report.edge_gap() < 0.02,
                "{policy:?}: measured {} analytic {}",
                report.measured_edge_pf,
                report.analytic_edge_pf
            );
            assert!(report.measured_edge_pf > 0.0 && report.measured_edge_pf < 1.0);
            assert!(report.events > 10_000);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (topo, problem, schedule) = chain_setup(4);
        let cfg = TieredSimConfig {
            horizon: 200.0,
            warmup: 10.0,
            seed: 3,
            replications: 2,
        };
        let a = simulate_tiered(&topo, &problem, &schedule, SyncPolicy::FixedOrder, &cfg).unwrap();
        let b = simulate_tiered(&topo, &problem, &schedule, SyncPolicy::FixedOrder, &cfg).unwrap();
        assert_eq!(a.measured_edge_pf.to_bits(), b.measured_edge_pf.to_bits());
        assert_eq!(a.events, b.events);
        let c = simulate_tiered(
            &topo,
            &problem,
            &schedule,
            SyncPolicy::FixedOrder,
            &TieredSimConfig { seed: 4, ..cfg },
        )
        .unwrap();
        assert_ne!(a.measured_edge_pf.to_bits(), c.measured_edge_pf.to_bits());
    }

    #[test]
    fn unscheduled_element_is_stale_everywhere_downstream() {
        let (topo, problem, mut schedule) = chain_setup(4);
        schedule.link_freqs[0][2] = 0.0;
        schedule.link_freqs[1][2] = 0.0;
        let report = simulate_tiered(
            &topo,
            &problem,
            &schedule,
            SyncPolicy::FixedOrder,
            &TieredSimConfig {
                horizon: 500.0,
                warmup: 20.0,
                seed: 5,
                replications: 2,
            },
        )
        .unwrap();
        // Element 2 changes but is never propagated: its relay/edge
        // fresh fraction decays toward 0 (a sliver survives from the
        // pre-first-change window).
        assert!(report.measured_node_pf[2] < report.analytic_node_pf[1] + 0.05);
    }
}
