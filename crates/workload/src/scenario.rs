//! Scenario builders reproducing the paper's experimental setups.
//!
//! A [`Scenario`] assembles a [`Problem`] the way the paper does (§2.2.2,
//! §4, §5.3):
//!
//! * **access probabilities** follow a Zipf(θ) over object ranks — object 0
//!   is the hottest; θ = 0 is uniform interest and makes the PF and GF
//!   objectives coincide;
//! * **change frequencies** are drawn from a Gamma whose mean is
//!   `updates_per_period / num_objects` and whose standard deviation is the
//!   `UpdateStdDev` knob, then scaled so they sum to exactly
//!   `updates_per_period` (keeping runs comparable across seeds);
//! * the **alignment** between interest and volatility is one of the
//!   paper's three cases: *aligned* (hot objects change most — the
//!   day-trader case), *reverse* (hot objects are stable), or
//!   *shuffled-change* (independent — the paper's default for comparing
//!   partitioning techniques);
//! * **object sizes** are all 1 (the core problem) or Pareto-distributed
//!   with mean 1 (§5.3, shape 1.1), with their own alignment relative to
//!   the change rates.

use freshen_core::error::{CoreError, Result};
use freshen_core::problem::Problem;
use freshen_core::rng::SplitMix64;

use crate::dist::{Gamma, Pareto, Zipf};

/// How user interest relates to change frequency (paper Figure 2 plus the
/// shuffled case of §2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// Hot objects change the most ("volatile stocks interest day-traders").
    Aligned,
    /// Hot objects change the least.
    Reverse,
    /// No relationship: change rates shuffled independently of interest.
    ShuffledChange,
}

/// Object-size distribution (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every object has size 1 — the fixed-size core problem.
    Uniform,
    /// Pareto-distributed sizes with the given shape, scaled to mean 1.0.
    /// The paper uses shape 1.1 (citing web measurements).
    Pareto {
        /// Pareto shape parameter (must exceed 1 for a finite mean).
        shape: f64,
    },
}

/// How object sizes relate to change frequency (paper Figures 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeAlignment {
    /// Largest objects change the most (Figure 10's setup).
    AlignedWithChange,
    /// Largest objects change the least — "large objects like images and
    /// movies rarely change, whereas small objects like stock quotes ...
    /// change quite often" (Figure 11's setup).
    ReverseOfChange,
    /// Sizes independent of change rates.
    Shuffled,
}

/// A fully specified synthetic workload. Construct via [`Scenario::builder`]
/// or the presets [`Scenario::table2`] / [`Scenario::table3_scaled`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    num_objects: usize,
    updates_per_period: f64,
    syncs_per_period: f64,
    zipf_theta: f64,
    update_std_dev: f64,
    alignment: Alignment,
    size_dist: SizeDist,
    size_alignment: SizeAlignment,
    seed: u64,
}

impl Scenario {
    /// Start building a scenario. Defaults: uniform sizes, sizes aligned
    /// with change, seed 0.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The paper's Table 2 "ideal experiments" setup: 500 objects, 1000
    /// updates/period (Gamma mean 2, σ = 1), 250 syncs/period, Zipf(θ).
    pub fn table2(theta: f64, alignment: Alignment, seed: u64) -> Scenario {
        Scenario::builder()
            .num_objects(500)
            .updates_per_period(1000.0)
            .syncs_per_period(250.0)
            .zipf_theta(theta)
            .update_std_dev(1.0)
            .alignment(alignment)
            .seed(seed)
            .build()
            .expect("table2 preset is valid")
    }

    /// The paper's Table 3 "big case" setup (at `n` = 500 000: 1 000 000
    /// updates/period with σ = 2, 250 000 syncs/period, θ = 1.0,
    /// shuffled-change alignment) with a configurable object count,
    /// keeping the paper's updates = 2N and syncs = N/2 ratios, so the
    /// big-case experiments can be smoke-tested at smaller N.
    pub fn table3_scaled(n: usize, seed: u64) -> Scenario {
        Scenario::builder()
            .num_objects(n)
            .updates_per_period(2.0 * n as f64)
            .syncs_per_period(0.5 * n as f64)
            .zipf_theta(1.0)
            .update_std_dev(2.0)
            .alignment(Alignment::ShuffledChange)
            .seed(seed)
            .build()
            .expect("table3 preset is valid")
    }

    /// Number of mirrored objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Total updates per period across all objects.
    pub fn updates_per_period(&self) -> f64 {
        self.updates_per_period
    }

    /// Sync bandwidth per period.
    pub fn syncs_per_period(&self) -> f64 {
        self.syncs_per_period
    }

    /// Zipf skew θ of the interest distribution.
    pub fn zipf_theta(&self) -> f64 {
        self.zipf_theta
    }

    /// Standard deviation of the Gamma change-rate distribution.
    pub fn update_std_dev(&self) -> f64 {
        self.update_std_dev
    }

    /// Interest/volatility alignment.
    pub fn alignment(&self) -> Alignment {
        self.alignment
    }

    /// Object-size distribution.
    pub fn size_dist(&self) -> SizeDist {
        self.size_dist
    }

    /// Size/volatility alignment.
    pub fn size_alignment(&self) -> SizeAlignment {
        self.size_alignment
    }

    /// RNG seed; identical scenarios produce identical problems.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A copy with a different θ (for skew sweeps).
    pub fn with_theta(&self, theta: f64) -> Scenario {
        Scenario {
            zipf_theta: theta,
            ..self.clone()
        }
    }

    /// A copy with a different alignment.
    pub fn with_alignment(&self, alignment: Alignment) -> Scenario {
        Scenario {
            alignment,
            ..self.clone()
        }
    }

    /// Materialize the [`Problem`] instance for this scenario.
    ///
    /// Deterministic in the scenario (including seed).
    pub fn problem(&self) -> Result<Problem> {
        let n = self.num_objects;
        let mut rng = SplitMix64::new(self.seed);

        // Interest: Zipf by object id, object 0 hottest.
        let probs = Zipf::new(n, self.zipf_theta).probabilities().to_vec();

        // Change rates: Gamma(mean = U/N, σ), sorted descending, then
        // placed against the interest ranking per the alignment.
        let mean_rate = self.updates_per_period / n as f64;
        let mut gamma = Gamma::with_mean_std(mean_rate, self.update_std_dev);
        let mut sorted_rates: Vec<f64> = (0..n).map(|_| gamma.sample(&mut rng)).collect();
        // Scale so the total update volume is exact.
        let total: f64 = sorted_rates.iter().sum();
        if total > 0.0 {
            let scale = self.updates_per_period / total;
            for r in &mut sorted_rates {
                *r *= scale;
            }
        }
        sorted_rates.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));

        // perm[i] = which descending-rank change rate object i receives.
        let perm: Vec<usize> = match self.alignment {
            Alignment::Aligned => (0..n).collect(),
            Alignment::Reverse => (0..n).rev().collect(),
            Alignment::ShuffledChange => {
                let mut p: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut p);
                p
            }
        };
        let change_rates: Vec<f64> = perm.iter().map(|&r| sorted_rates[r]).collect();

        // Sizes, if any, get their own ordering relative to change rank.
        let sizes = match self.size_dist {
            SizeDist::Uniform => None,
            SizeDist::Pareto { shape } => {
                let pareto = Pareto::with_mean(shape, 1.0);
                let mut sorted_sizes: Vec<f64> = (0..n).map(|_| pareto.sample(&mut rng)).collect();
                sorted_sizes.sort_by(|a, b| b.partial_cmp(a).expect("sizes are finite"));
                let sizes: Vec<f64> = match self.size_alignment {
                    SizeAlignment::AlignedWithChange => {
                        perm.iter().map(|&r| sorted_sizes[r]).collect()
                    }
                    SizeAlignment::ReverseOfChange => {
                        perm.iter().map(|&r| sorted_sizes[n - 1 - r]).collect()
                    }
                    SizeAlignment::Shuffled => {
                        rng.shuffle(&mut sorted_sizes);
                        sorted_sizes
                    }
                };
                Some(sizes)
            }
        };

        let mut builder = Problem::builder()
            .change_rates(change_rates)
            .access_probs(probs)
            .bandwidth(self.syncs_per_period);
        if let Some(s) = sizes {
            builder = builder.sizes(s);
        }
        builder.build()
    }
}

/// Named stress workloads for the scenario stress matrix: shapes the
/// baseline Zipf/Gamma machinery does not reach. Selectable by name from
/// the fleet spec and usable anywhere a [`Problem`] is (engine runs,
/// `freshen serve`, bench binaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressScenario {
    /// Flash crowd: a tiny hot set (~1% of objects) absorbs an access
    /// spike while also being the most volatile — the "breaking news"
    /// case where interest and churn pile onto the same objects and
    /// bandwidth is starved relative to the update volume.
    FlashCrowd,
    /// Diurnal cycle: interest follows a raised cosine over object index
    /// (a timezone-population model) while change activity runs in
    /// anti-phase — what is being read now changed least recently.
    Diurnal,
}

impl StressScenario {
    /// Every named stress generator, for enumeration in specs and docs.
    pub const ALL: [StressScenario; 2] = [StressScenario::FlashCrowd, StressScenario::Diurnal];

    /// Parse a spec-facing name (`flash-crowd`, `diurnal`).
    pub fn from_name(name: &str) -> Option<StressScenario> {
        match name {
            "flash-crowd" => Some(StressScenario::FlashCrowd),
            "diurnal" => Some(StressScenario::Diurnal),
            _ => None,
        }
    }

    /// The spec-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            StressScenario::FlashCrowd => "flash-crowd",
            StressScenario::Diurnal => "diurnal",
        }
    }

    /// Materialize the stressed [`Problem`]: `num_objects` objects whose
    /// change rates sum to exactly `updates_per_period` against
    /// `syncs_per_period` of bandwidth. Deterministic in the seed.
    pub fn problem(
        &self,
        num_objects: usize,
        updates_per_period: f64,
        syncs_per_period: f64,
        seed: u64,
    ) -> Result<Problem> {
        if num_objects == 0 {
            return Err(CoreError::Empty);
        }
        for (what, v) in [
            ("updates_per_period", updates_per_period),
            ("syncs_per_period", syncs_per_period),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what,
                    index: None,
                    value: v,
                });
            }
        }
        let n = num_objects;
        let mut rng = SplitMix64::new(seed);
        let (mut weights, mut rates): (Vec<f64>, Vec<f64>) = match self {
            StressScenario::FlashCrowd => {
                // Zipf base interest with the hot set spiked 50x, and the
                // same hot set drawing the largest change rates (aligned).
                let hot = (n / 100).max(1);
                let weights: Vec<f64> = Zipf::new(n, 1.0)
                    .probabilities()
                    .iter()
                    .enumerate()
                    .map(|(i, p)| if i < hot { p * 50.0 } else { *p })
                    .collect();
                let mut gamma = Gamma::with_mean_std(updates_per_period / n as f64, 2.0);
                let mut rates: Vec<f64> = (0..n).map(|_| gamma.sample(&mut rng)).collect();
                rates.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
                (weights, rates)
            }
            StressScenario::Diurnal => {
                // Raised cosines over object index; change runs half a
                // cycle behind interest. Gamma jitter keeps objects
                // distinguishable and makes the seed matter.
                let mut jitter = Gamma::with_mean_std(1.0, 0.25);
                let phase = |i: usize| 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                let weights: Vec<f64> = (0..n)
                    .map(|i| (1.0 + 0.8 * phase(i).cos()) * jitter.sample(&mut rng))
                    .collect();
                let rates: Vec<f64> = (0..n)
                    .map(|i| {
                        (1.0 + 0.8 * (phase(i) + std::f64::consts::PI).cos())
                            * jitter.sample(&mut rng)
                    })
                    .collect();
                (weights, rates)
            }
        };
        let weight_total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= weight_total;
        }
        let rate_total: f64 = rates.iter().sum();
        if rate_total > 0.0 {
            let scale = updates_per_period / rate_total;
            for r in &mut rates {
                *r *= scale;
            }
        }
        Problem::builder()
            .change_rates(rates)
            .access_probs(weights)
            .bandwidth(syncs_per_period)
            .build()
    }
}

/// Builder for [`Scenario`] with validation on [`build`].
///
/// [`build`]: ScenarioBuilder::build
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    num_objects: usize,
    updates_per_period: f64,
    syncs_per_period: f64,
    zipf_theta: f64,
    update_std_dev: f64,
    alignment: Alignment,
    size_dist: SizeDist,
    size_alignment: SizeAlignment,
    seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            num_objects: 0,
            updates_per_period: 0.0,
            syncs_per_period: 0.0,
            zipf_theta: 0.0,
            update_std_dev: 1.0,
            alignment: Alignment::ShuffledChange,
            size_dist: SizeDist::Uniform,
            size_alignment: SizeAlignment::AlignedWithChange,
            seed: 0,
        }
    }
}

impl ScenarioBuilder {
    /// Number of mirrored objects (required, > 0).
    pub fn num_objects(mut self, n: usize) -> Self {
        self.num_objects = n;
        self
    }

    /// Total source updates per period (required, > 0).
    pub fn updates_per_period(mut self, u: f64) -> Self {
        self.updates_per_period = u;
        self
    }

    /// Sync bandwidth per period (required, > 0).
    pub fn syncs_per_period(mut self, b: f64) -> Self {
        self.syncs_per_period = b;
        self
    }

    /// Zipf skew θ ≥ 0 of the interest distribution (default 0 = uniform).
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Standard deviation of the change-rate Gamma (default 1.0).
    pub fn update_std_dev(mut self, sd: f64) -> Self {
        self.update_std_dev = sd;
        self
    }

    /// Interest/volatility alignment (default shuffled).
    pub fn alignment(mut self, a: Alignment) -> Self {
        self.alignment = a;
        self
    }

    /// Object-size distribution (default uniform 1.0).
    pub fn size_dist(mut self, d: SizeDist) -> Self {
        self.size_dist = d;
        self
    }

    /// Size/volatility alignment (default aligned with change).
    pub fn size_alignment(mut self, a: SizeAlignment) -> Self {
        self.size_alignment = a;
        self
    }

    /// RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate and construct.
    pub fn build(self) -> Result<Scenario> {
        if self.num_objects == 0 {
            return Err(CoreError::Empty);
        }
        for (what, v) in [
            ("updates_per_period", self.updates_per_period),
            ("syncs_per_period", self.syncs_per_period),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what,
                    index: None,
                    value: v,
                });
            }
        }
        if !self.zipf_theta.is_finite() || self.zipf_theta < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "zipf_theta",
                index: None,
                value: self.zipf_theta,
            });
        }
        if !self.update_std_dev.is_finite() || self.update_std_dev <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "update_std_dev",
                index: None,
                value: self.update_std_dev,
            });
        }
        if let SizeDist::Pareto { shape } = self.size_dist {
            if !shape.is_finite() || shape <= 1.0 {
                return Err(CoreError::InvalidValue {
                    what: "pareto shape",
                    index: None,
                    value: shape,
                });
            }
        }
        Ok(Scenario {
            num_objects: self.num_objects,
            updates_per_period: self.updates_per_period,
            syncs_per_period: self.syncs_per_period,
            zipf_theta: self.zipf_theta,
            update_std_dev: self.update_std_dev,
            alignment: self.alignment,
            size_dist: self.size_dist,
            size_alignment: self.size_alignment,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_correlation_sign(a: &[f64], b: &[f64]) -> f64 {
        // Crude sign of association: compare top-half means.
        let n = a.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&i, &j| b[j].partial_cmp(&b[i]).unwrap());
        let top: f64 = idx[..n / 2].iter().map(|&i| a[i]).sum();
        let bot: f64 = idx[n / 2..].iter().map(|&i| a[i]).sum();
        top - bot
    }

    #[test]
    fn seeded_problem_bits_are_pinned() {
        // Every committed figure is drawn through `problem()`; a change to
        // the generator or a sampler must fail here, not silently move
        // them. FNV-1a over the bits of every column.
        let p = Scenario::builder()
            .num_objects(200)
            .updates_per_period(400.0)
            .syncs_per_period(100.0)
            .zipf_theta(0.8)
            .size_dist(SizeDist::Pareto { shape: 1.1 })
            .size_alignment(SizeAlignment::Shuffled)
            .seed(42)
            .build()
            .unwrap()
            .problem()
            .unwrap();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for v in [p.change_rates(), p.access_probs(), p.sizes()].concat() {
            for byte in v.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        assert_eq!(digest, 0x9137_9F5B_F17C_35C9);
    }

    #[test]
    fn table2_preset_matches_paper() {
        let s = Scenario::table2(0.8, Alignment::Aligned, 1);
        assert_eq!(s.num_objects(), 500);
        assert_eq!(s.updates_per_period(), 1000.0);
        assert_eq!(s.syncs_per_period(), 250.0);
        let p = s.problem().unwrap();
        assert_eq!(p.len(), 500);
        let total: f64 = p.change_rates().iter().sum();
        assert!((total - 1000.0).abs() < 1e-6, "rates sum to update volume");
        assert!((p.bandwidth() - 250.0).abs() < 1e-12);
        assert!(p.has_uniform_sizes());
    }

    #[test]
    fn problem_is_deterministic_in_seed() {
        let a = Scenario::table2(1.0, Alignment::ShuffledChange, 7)
            .problem()
            .unwrap();
        let b = Scenario::table2(1.0, Alignment::ShuffledChange, 7)
            .problem()
            .unwrap();
        assert_eq!(a, b);
        let c = Scenario::table2(1.0, Alignment::ShuffledChange, 8)
            .problem()
            .unwrap();
        assert_ne!(a.change_rates(), c.change_rates());
    }

    #[test]
    fn aligned_puts_high_rates_on_hot_objects() {
        let p = Scenario::table2(1.2, Alignment::Aligned, 3)
            .problem()
            .unwrap();
        // Object 0 is hottest and must have the highest change rate.
        let rates = p.change_rates();
        assert!(rates.windows(2).all(|w| w[0] >= w[1]), "rates descending");
        assert!(rank_correlation_sign(rates, p.access_probs()) > 0.0);
    }

    #[test]
    fn reverse_puts_low_rates_on_hot_objects() {
        let p = Scenario::table2(1.2, Alignment::Reverse, 3)
            .problem()
            .unwrap();
        let rates = p.change_rates();
        assert!(rates.windows(2).all(|w| w[0] <= w[1]), "rates ascending");
        assert!(rank_correlation_sign(rates, p.access_probs()) < 0.0);
    }

    #[test]
    fn shuffled_breaks_ordering() {
        let p = Scenario::table2(1.2, Alignment::ShuffledChange, 3)
            .problem()
            .unwrap();
        let rates = p.change_rates();
        let asc = rates.windows(2).all(|w| w[0] <= w[1]);
        let desc = rates.windows(2).all(|w| w[0] >= w[1]);
        assert!(!asc && !desc, "shuffled rates are not sorted");
    }

    #[test]
    fn alignment_changes_pairing_not_values() {
        let base = Scenario::table2(1.0, Alignment::Aligned, 5);
        let mut a: Vec<f64> = base.problem().unwrap().change_rates().to_vec();
        let mut b: Vec<f64> = base
            .with_alignment(Alignment::Reverse)
            .problem()
            .unwrap()
            .change_rates()
            .to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "same multiset of rates");
        }
    }

    #[test]
    fn pareto_sizes_have_mean_one_ish() {
        let s = Scenario::builder()
            .num_objects(5000)
            .updates_per_period(10_000.0)
            .syncs_per_period(2500.0)
            .size_dist(SizeDist::Pareto { shape: 2.5 })
            .seed(11)
            .build()
            .unwrap();
        let p = s.problem().unwrap();
        assert!(!p.has_uniform_sizes());
        let mean: f64 = p.sizes().iter().sum::<f64>() / p.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "size mean {mean}");
    }

    #[test]
    fn size_reverse_of_change_anticorrelates() {
        let s = Scenario::builder()
            .num_objects(1000)
            .updates_per_period(2000.0)
            .syncs_per_period(500.0)
            .alignment(Alignment::Aligned)
            .size_dist(SizeDist::Pareto { shape: 1.1 })
            .size_alignment(SizeAlignment::ReverseOfChange)
            .seed(13)
            .build()
            .unwrap();
        let p = s.problem().unwrap();
        assert!(
            rank_correlation_sign(p.sizes(), p.change_rates()) < 0.0,
            "fast-changing objects are small"
        );
    }

    #[test]
    fn size_aligned_with_change_correlates_under_shuffle() {
        let s = Scenario::builder()
            .num_objects(1000)
            .updates_per_period(2000.0)
            .syncs_per_period(500.0)
            .alignment(Alignment::ShuffledChange)
            .size_dist(SizeDist::Pareto { shape: 1.1 })
            .size_alignment(SizeAlignment::AlignedWithChange)
            .seed(17)
            .build()
            .unwrap();
        let p = s.problem().unwrap();
        assert!(
            rank_correlation_sign(p.sizes(), p.change_rates()) > 0.0,
            "size ranking follows change ranking even when both are shuffled vs interest"
        );
    }

    #[test]
    fn theta_zero_uniform_interest() {
        let p = Scenario::table2(0.0, Alignment::Aligned, 1)
            .problem()
            .unwrap();
        for &prob in p.access_probs() {
            assert!((prob - 1.0 / 500.0).abs() < 1e-12);
        }
    }

    #[test]
    fn builder_validation() {
        assert!(Scenario::builder().build().is_err());
        assert!(Scenario::builder()
            .num_objects(10)
            .updates_per_period(0.0)
            .syncs_per_period(1.0)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .num_objects(10)
            .updates_per_period(1.0)
            .syncs_per_period(1.0)
            .zipf_theta(-0.5)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .num_objects(10)
            .updates_per_period(1.0)
            .syncs_per_period(1.0)
            .size_dist(SizeDist::Pareto { shape: 1.0 })
            .build()
            .is_err());
    }

    #[test]
    fn table3_scaled_keeps_ratios() {
        let s = Scenario::table3_scaled(1000, 2);
        assert_eq!(s.num_objects(), 1000);
        assert_eq!(s.updates_per_period(), 2000.0);
        assert_eq!(s.syncs_per_period(), 500.0);
        assert_eq!(s.zipf_theta(), 1.0);
        assert_eq!(s.update_std_dev(), 2.0);
    }

    #[test]
    fn stress_names_round_trip() {
        for s in StressScenario::ALL {
            assert_eq!(StressScenario::from_name(s.name()), Some(s));
        }
        assert_eq!(StressScenario::from_name("baseline"), None);
    }

    #[test]
    fn stress_problems_are_deterministic_and_scaled() {
        for s in StressScenario::ALL {
            let a = s.problem(400, 800.0, 200.0, 5).unwrap();
            let b = s.problem(400, 800.0, 200.0, 5).unwrap();
            assert_eq!(a, b, "{} deterministic in seed", s.name());
            let c = s.problem(400, 800.0, 200.0, 6).unwrap();
            assert_ne!(a.change_rates(), c.change_rates());
            let total: f64 = a.change_rates().iter().sum();
            assert!((total - 800.0).abs() < 1e-6, "{} rates scaled", s.name());
            let mass: f64 = a.access_probs().iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "{} probs normalized", s.name());
        }
    }

    #[test]
    fn flash_crowd_spikes_a_volatile_hot_set() {
        let p = StressScenario::FlashCrowd
            .problem(1000, 2000.0, 500.0, 3)
            .unwrap();
        let probs = p.access_probs();
        let hot: f64 = probs[..10].iter().sum();
        assert!(hot > 0.5, "1% of objects carry most interest: {hot}");
        assert!(
            p.change_rates().windows(2).all(|w| w[0] >= w[1]),
            "hot objects are also the most volatile"
        );
        assert!(
            rank_correlation_sign(p.change_rates(), probs) > 0.0,
            "interest and churn aligned"
        );
    }

    #[test]
    fn diurnal_interest_and_change_run_in_anti_phase() {
        let p = StressScenario::Diurnal
            .problem(1000, 2000.0, 500.0, 3)
            .unwrap();
        assert!(
            rank_correlation_sign(p.change_rates(), p.access_probs()) < 0.0,
            "what is read now changed least recently"
        );
    }

    #[test]
    fn stress_validation_rejects_bad_knobs() {
        let s = StressScenario::FlashCrowd;
        assert!(s.problem(0, 1.0, 1.0, 0).is_err());
        assert!(s.problem(10, 0.0, 1.0, 0).is_err());
        assert!(s.problem(10, 1.0, f64::NAN, 0).is_err());
    }

    #[test]
    fn with_theta_only_changes_theta() {
        let a = Scenario::table2(0.4, Alignment::Aligned, 9);
        let b = a.with_theta(1.6);
        assert_eq!(b.zipf_theta(), 1.6);
        assert_eq!(b.seed(), a.seed());
        assert_eq!(b.num_objects(), a.num_objects());
        // Change rates identical across θ (same seed, same draw order).
        let pa = a.problem().unwrap();
        let pb = b.problem().unwrap();
        assert_eq!(pa.change_rates(), pb.change_rates());
    }
}
