//! User profiles and their aggregation into the master profile.
//!
//! The paper (§2): each user submits a *profile* — "a declarative
//! specification of the relative importance of each copy in the mirror",
//! modeled as a distribution of access frequencies. The mirror aggregates
//! all user profiles into one **master profile**, a combined frequency
//! distribution; scaled by total accesses it becomes the access probability
//! vector `p` the scheduler consumes.
//!
//! Two refinements the paper calls out are implemented here:
//! * individual profiles can be **weighted** before aggregation "so as to
//!   give higher priority to more important users (e.g., generals or higher
//!   paying customers)";
//! * a profile can be **learned from the request log** ("a simple learning
//!   algorithm that monitors the system request log", §7) — see
//!   [`ProfileEstimator`].

use crate::error::{CoreError, Result};

/// A single user's interest profile over the `N` mirrored elements,
/// expressed as non-negative access frequencies (accesses per period).
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Access frequency per element; length must equal the mirror size.
    frequencies: Vec<f64>,
}

impl UserProfile {
    /// Build a profile from raw access frequencies.
    ///
    /// Frequencies must be finite and non-negative, with at least one
    /// strictly positive entry.
    pub fn new(frequencies: Vec<f64>) -> Result<Self> {
        if frequencies.is_empty() {
            return Err(CoreError::Empty);
        }
        let mut any_positive = false;
        for (i, &v) in frequencies.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "profile frequencies",
                    index: Some(i),
                    value: v,
                });
            }
            if v > 0.0 {
                any_positive = true;
            }
        }
        if !any_positive {
            return Err(CoreError::ProbabilityNotNormalized { sum: 0.0 });
        }
        Ok(UserProfile { frequencies })
    }

    /// Number of elements this profile covers.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// True when the profile covers zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// Raw access frequencies.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Total accesses per period this user generates.
    pub fn total_rate(&self) -> f64 {
        self.frequencies.iter().sum()
    }

    /// This user's access *probabilities* (frequencies normalized to 1).
    pub fn probabilities(&self) -> Vec<f64> {
        let total = self.total_rate();
        self.frequencies.iter().map(|f| f / total).collect()
    }
}

/// The aggregated master profile — "a combined frequency distribution for
/// all users" (§2). Feed [`MasterProfile::access_probs`] into
/// [`crate::problem::ProblemBuilder::access_probs`].
#[derive(Debug, Clone, PartialEq)]
pub struct MasterProfile {
    combined: Vec<f64>,
    users: usize,
}

impl MasterProfile {
    /// Aggregate user profiles with per-user priority weights (§2: "so as
    /// to give higher priority to more important users").
    ///
    /// Each user's frequency vector is multiplied by their weight and the
    /// results are summed. Weights must be finite and non-negative with a
    /// positive sum; profile lengths must agree.
    pub fn aggregate_weighted(profiles: &[UserProfile], weights: &[f64]) -> Result<Self> {
        if profiles.is_empty() {
            return Err(CoreError::Empty);
        }
        if weights.len() != profiles.len() {
            return Err(CoreError::LengthMismatch {
                what: "profile weights",
                expected: profiles.len(),
                actual: weights.len(),
            });
        }
        let n = profiles[0].len();
        let mut combined = vec![0.0; n];
        let mut weight_sum = 0.0;
        for (u, (profile, &w)) in profiles.iter().zip(weights).enumerate() {
            if profile.len() != n {
                return Err(CoreError::LengthMismatch {
                    what: "profile length",
                    expected: n,
                    actual: profile.len(),
                });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "profile weight",
                    index: Some(u),
                    value: w,
                });
            }
            weight_sum += w;
            for (c, &f) in combined.iter_mut().zip(profile.frequencies()) {
                *c += w * f;
            }
        }
        if weight_sum <= 0.0 || combined.iter().sum::<f64>() <= 0.0 {
            return Err(CoreError::ProbabilityNotNormalized { sum: 0.0 });
        }
        Ok(MasterProfile {
            combined,
            users: profiles.len(),
        })
    }

    /// Number of mirrored elements the profile covers.
    pub fn len(&self) -> usize {
        self.combined.len()
    }

    /// True when the profile covers zero elements (unreachable normally).
    pub fn is_empty(&self) -> bool {
        self.combined.is_empty()
    }

    /// How many user profiles were aggregated.
    pub fn user_count(&self) -> usize {
        self.users
    }

    /// Combined access frequencies (weighted sums).
    pub fn combined_frequencies(&self) -> &[f64] {
        &self.combined
    }

    /// The access probability vector `p` (`Σ pᵢ = 1`).
    pub fn access_probs(&self) -> Vec<f64> {
        let total: f64 = self.combined.iter().sum();
        self.combined.iter().map(|f| f / total).collect()
    }
}

/// Binary exponent of the fold threshold: once the global scale of a
/// [`ProfileEstimator`] reaches `2^FOLD_EXP`, the next
/// [`observe`](ProfileEstimator::observe) folds it back into the weights.
const FOLD_EXP: i32 = 64;
/// `2^FOLD_EXP`, the scale at which a fold fires.
const FOLD_AT: f64 = (1u128 << FOLD_EXP) as f64;
/// `2^-FOLD_EXP`, the exact factor a fold multiplies by.
const UNFOLD: f64 = 1.0 / FOLD_AT;

/// Online profile learner: observes element accesses (e.g. from the mirror's
/// request log) and maintains an exponentially decayed frequency estimate.
///
/// This implements the paper's §7 remark that access patterns can come "from
/// a simple learning algorithm that monitors the system request log". With
/// `decay = 1.0` the estimator degenerates to plain counting.
///
/// The semantics are those of multiplying every count by `decay` before
/// each increment: after accesses `e₁ … e_t`, element `i` counts
/// `cᵢ = Σ_{k: e_k = i} decay^(t−k)`. The cost is not: each count is kept
/// as `cᵢ = wᵢ/g` with one global growth factor `g`, so an access divides
/// `g` by `decay` and adds `g` to one weight, O(1). When `g` reaches
/// `2⁶⁴`, one O(N) pass multiplies every weight and `g` by the exact power
/// `2⁻⁶⁴`; that changes no count (a power-of-two scale is exact above the
/// subnormals) and runs once per `⌈64·ln 2/−ln decay⌉` accesses, about
/// every 88,700 at 0.9995. At `decay = 1.0`, `g` stays exactly 1 and the
/// weights are the plain counts.
#[derive(Debug, Clone)]
pub struct ProfileEstimator {
    /// Per-element weights `wᵢ = cᵢ·g`.
    weights: Vec<f64>,
    /// The global growth factor `g`, kept in `[1, 2⁶⁴)` by `observe`.
    scale: f64,
    decay: f64,
    observations: u64,
}

impl ProfileEstimator {
    /// The smallest accepted decay, `2⁻⁶⁴`. From a scale below `2⁶⁴`, one
    /// division by a decay at least this large stays below `2¹²⁸`, so one
    /// fold brings the scale back under `2⁶⁴`. A smaller decay would
    /// forget everything but the last access to within 10⁻¹⁹ anyway.
    pub const MIN_DECAY: f64 = UNFOLD;

    /// Create an estimator over `n` elements with per-observation decay
    /// factor `decay ∈ [MIN_DECAY, 1]`, applied (in effect) to all counts
    /// before each increment. An access costs O(1), plus one O(N) fold per
    /// `⌈64·ln 2/−ln decay⌉` accesses (never at `decay = 1.0`).
    pub fn new(n: usize, decay: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        check_decay(decay)?;
        Ok(ProfileEstimator {
            weights: vec![0.0; n],
            scale: 1.0,
            decay,
            observations: 0,
        })
    }

    /// Record one access to `element`.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn observe(&mut self, element: usize) {
        assert!(element < self.weights.len(), "element out of range");
        self.scale /= self.decay;
        self.weights[element] += self.scale;
        self.observations += 1;
        if self.scale >= FOLD_AT {
            for w in &mut self.weights {
                *w *= UNFOLD;
            }
            self.scale *= UNFOLD;
        }
    }

    /// Record a batch of accesses (indices into the mirror).
    pub fn observe_all(&mut self, elements: &[usize]) {
        for &e in elements {
            self.observe(e);
        }
    }

    /// Number of accesses observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Current estimate as a master-profile-compatible probability vector,
    /// or `None` before any observation.
    pub fn access_probs(&self) -> Option<Vec<f64>> {
        // cᵢ/Σc = wᵢ/Σw: the scale cancels.
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some(self.weights.iter().map(|w| w / total).collect())
    }

    /// Current estimate smoothed with a uniform prior: each element gets
    /// pseudo-count `alpha`. Guarantees strictly positive probabilities,
    /// which keeps never-yet-accessed objects from being starved forever
    /// purely due to a cold log.
    pub fn access_probs_smoothed(&self, alpha: f64) -> Vec<f64> {
        assert!(alpha > 0.0, "alpha must be positive");
        // (cᵢ + α)/Σ(c + α) = (wᵢ + α·g)/Σ(w + α·g): the scale applies
        // to the pseudo-count instead of every weight.
        let pseudo = alpha * self.scale;
        let total: f64 = self.weights.iter().sum::<f64>() + pseudo * self.weights.len() as f64;
        self.weights.iter().map(|w| (w + pseudo) / total).collect()
    }

    /// The decayed per-element counts `wᵢ/g`, materialized (O(N)).
    pub fn counts(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w / self.scale).collect()
    }

    /// The raw per-element weights `wᵢ` — with [`scale`](Self::scale),
    /// the checkpointable state.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The global growth factor `g` (the counts are `wᵢ/g`), in `[1, 2⁶⁴)`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Check checkpointed estimator state without building an estimator:
    /// every weight finite and non-negative, and the scale finite and in
    /// `[1, 2⁶⁴)`, the range [`observe`](Self::observe) keeps it in.
    pub fn check_state(weights: &[f64], scale: f64) -> Result<()> {
        if weights.is_empty() {
            return Err(CoreError::Empty);
        }
        if !(1.0..FOLD_AT).contains(&scale) {
            return Err(CoreError::InvalidValue {
                what: "profile scale",
                index: None,
                value: scale,
            });
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "profile weight",
                    index: Some(i),
                    value: w,
                });
            }
        }
        Ok(())
    }

    /// Rebuild an estimator from checkpointed state. `decay` comes from
    /// configuration; `weights`/`scale`/`observations` are what
    /// [`weights`](Self::weights), [`scale`](Self::scale) and
    /// [`observations`](Self::observations) exported, carried bit for bit
    /// so the restored estimator folds at the same access as the one that
    /// exported them. Invalid state is a [`CoreError`] (see
    /// [`check_state`](Self::check_state)).
    pub fn from_state(
        weights: Vec<f64>,
        scale: f64,
        decay: f64,
        observations: u64,
    ) -> Result<Self> {
        check_decay(decay)?;
        Self::check_state(&weights, scale)?;
        Ok(ProfileEstimator {
            weights,
            scale,
            decay,
            observations,
        })
    }
}

/// `decay` must lie in `[MIN_DECAY, 1]`.
fn check_decay(decay: f64) -> Result<()> {
    if !(ProfileEstimator::MIN_DECAY..=1.0).contains(&decay) {
        return Err(CoreError::InvalidValue {
            what: "decay",
            index: None,
            value: decay,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_profile_validation() {
        assert!(UserProfile::new(vec![]).is_err());
        assert!(UserProfile::new(vec![0.0, 0.0]).is_err());
        assert!(UserProfile::new(vec![1.0, -1.0]).is_err());
        assert!(UserProfile::new(vec![1.0, f64::NAN]).is_err());
        assert!(UserProfile::new(vec![1.0, 0.0]).is_ok());
    }

    #[test]
    fn user_profile_probabilities_normalize() {
        let u = UserProfile::new(vec![1.0, 3.0]).unwrap();
        assert_eq!(u.probabilities(), vec![0.25, 0.75]);
        assert_eq!(u.total_rate(), 4.0);
    }

    #[test]
    fn aggregate_equal_weights_sums_frequencies() {
        let a = UserProfile::new(vec![2.0, 0.0]).unwrap();
        let b = UserProfile::new(vec![0.0, 2.0]).unwrap();
        let m = MasterProfile::aggregate_weighted(&[a, b], &[1.0, 1.0]).unwrap();
        assert_eq!(m.combined_frequencies(), &[2.0, 2.0]);
        assert_eq!(m.access_probs(), vec![0.5, 0.5]);
        assert_eq!(m.user_count(), 2);
    }

    #[test]
    fn aggregate_weighted_prioritizes_users() {
        // The "general" outweighs the private 3:1.
        let general = UserProfile::new(vec![1.0, 0.0]).unwrap();
        let private = UserProfile::new(vec![0.0, 1.0]).unwrap();
        let m = MasterProfile::aggregate_weighted(&[general, private], &[3.0, 1.0]).unwrap();
        assert_eq!(m.access_probs(), vec![0.75, 0.25]);
    }

    #[test]
    fn aggregate_rejects_mismatched_lengths() {
        let a = UserProfile::new(vec![1.0, 1.0]).unwrap();
        let b = UserProfile::new(vec![1.0]).unwrap();
        assert!(MasterProfile::aggregate_weighted(&[a, b], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn aggregate_rejects_bad_weights() {
        let a = UserProfile::new(vec![1.0]).unwrap();
        let b = UserProfile::new(vec![1.0]).unwrap();
        assert!(MasterProfile::aggregate_weighted(&[a.clone(), b.clone()], &[1.0]).is_err());
        assert!(MasterProfile::aggregate_weighted(&[a.clone(), b.clone()], &[-1.0, 1.0]).is_err());
        assert!(MasterProfile::aggregate_weighted(&[a, b], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn aggregate_rejects_empty() {
        assert!(MasterProfile::aggregate_weighted(&[], &[]).is_err());
    }

    #[test]
    fn zero_weight_user_is_ignored() {
        let a = UserProfile::new(vec![1.0, 0.0]).unwrap();
        let b = UserProfile::new(vec![0.0, 1.0]).unwrap();
        let m = MasterProfile::aggregate_weighted(&[a, b], &[1.0, 0.0]).unwrap();
        assert_eq!(m.access_probs(), vec![1.0, 0.0]);
    }

    #[test]
    fn estimator_counts_without_decay() {
        let mut e = ProfileEstimator::new(3, 1.0).unwrap();
        assert!(e.access_probs().is_none());
        e.observe_all(&[0, 0, 0, 1]);
        assert_eq!(e.observations(), 4);
        let p = e.access_probs().unwrap();
        assert_eq!(p, vec![0.75, 0.25, 0.0]);
    }

    #[test]
    fn estimator_decay_forgets_old_interest() {
        let mut e = ProfileEstimator::new(2, 0.5).unwrap();
        // Old interest in element 0 ...
        for _ in 0..10 {
            e.observe(0);
        }
        // ... superseded by recent interest in element 1.
        for _ in 0..10 {
            e.observe(1);
        }
        let p = e.access_probs().unwrap();
        assert!(p[1] > 0.99, "recent interest dominates: {p:?}");
    }

    #[test]
    fn estimator_smoothing_keeps_all_positive() {
        let mut e = ProfileEstimator::new(4, 1.0).unwrap();
        e.observe(2);
        let p = e.access_probs_smoothed(0.1);
        assert!(p.iter().all(|&x| x > 0.0));
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[2] > p[0]);
    }

    #[test]
    fn estimator_rejects_bad_config() {
        assert!(ProfileEstimator::new(0, 1.0).is_err());
        assert!(ProfileEstimator::new(2, 0.0).is_err());
        assert!(ProfileEstimator::new(2, 1.5).is_err());
        assert!(ProfileEstimator::new(2, f64::NAN).is_err());
        assert!(ProfileEstimator::new(2, 1e-20).is_err());
        assert!(ProfileEstimator::new(2, ProfileEstimator::MIN_DECAY).is_ok());
    }

    /// The per-access product the lazy fold stands for: every count
    /// multiplied by `decay` before each increment.
    struct Eager {
        counts: Vec<f64>,
        decay: f64,
    }

    impl Eager {
        fn observe(&mut self, element: usize) {
            for c in &mut self.counts {
                *c *= self.decay;
            }
            self.counts[element] += 1.0;
        }

        fn smoothed(&self, alpha: f64) -> Vec<f64> {
            let total: f64 = self.counts.iter().sum::<f64>() + alpha * self.counts.len() as f64;
            self.counts.iter().map(|c| (c + alpha) / total).collect()
        }
    }

    /// A skewed access stream whose hot set rotates every `period`
    /// accesses, so old interest decays across folds.
    fn skewed_stream(n: usize, len: usize, period: usize, seed: u64) -> Vec<usize> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        (0..len)
            .map(|k| {
                let rank = (n as f64 * rng.next_f64().powi(3)) as usize;
                (rank + 7 * (k / period)) % n
            })
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs()
    }

    #[test]
    fn lazy_fold_matches_the_per_access_product_across_folds() {
        let (n, decay, alpha) = (64, 0.999, 0.5);
        let mut lazy = ProfileEstimator::new(n, decay).unwrap();
        let mut eager = Eager {
            counts: vec![0.0; n],
            decay,
        };
        let mut folds = 0;
        for (k, &e) in skewed_stream(n, 200_000, 9_000, 11).iter().enumerate() {
            let before = lazy.scale();
            lazy.observe(e);
            eager.observe(e);
            let folded = lazy.scale() != before / decay;
            folds += usize::from(folded);
            if k % 4_999 != 0 && !folded {
                continue;
            }
            let total: f64 = eager.counts.iter().sum();
            for (i, (&l, &x)) in lazy.counts().iter().zip(&eager.counts).enumerate() {
                if x > 1e-12 * total {
                    assert!(close(l, x), "count {i} after {k}: {l} vs {x}");
                }
            }
            let smoothed = lazy.access_probs_smoothed(alpha);
            for (i, (&l, &x)) in smoothed.iter().zip(&eager.smoothed(alpha)).enumerate() {
                assert!(close(l, x), "smoothed {i} after {k}: {l} vs {x}");
            }
        }
        assert!(folds >= 3, "the stream crossed only {folds} folds");
        assert_eq!(lazy.observations(), 200_000);
    }

    #[test]
    fn decay_one_is_plain_counting_bit_for_bit() {
        let n = 50;
        let mut lazy = ProfileEstimator::new(n, 1.0).unwrap();
        let mut plain = vec![0.0f64; n];
        for &e in &skewed_stream(n, 20_000, 3_000, 5) {
            lazy.observe(e);
            plain[e] += 1.0;
        }
        assert_eq!(lazy.scale().to_bits(), 1.0f64.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lazy.counts()), bits(&plain));
        assert_eq!(bits(lazy.weights()), bits(&plain));
        let alpha = 0.01;
        let total: f64 = plain.iter().sum::<f64>() + alpha * n as f64;
        let expected: Vec<f64> = plain.iter().map(|c| (c + alpha) / total).collect();
        assert_eq!(bits(&lazy.access_probs_smoothed(alpha)), bits(&expected));
        let total: f64 = plain.iter().sum();
        let expected: Vec<f64> = plain.iter().map(|c| c / total).collect();
        assert_eq!(bits(&lazy.access_probs().unwrap()), bits(&expected));
    }

    #[test]
    fn folds_come_every_ceil_k_ln2_over_minus_ln_decay_accesses() {
        for decay in [0.5, 0.9, 0.99, 0.9995, UNFOLD] {
            let every = (f64::from(FOLD_EXP) * std::f64::consts::LN_2 / -decay.ln()).ceil() as u64;
            let mut e = ProfileEstimator::new(8, decay).unwrap();
            let mut last_fold = 0u64;
            let mut folds = 0;
            for k in 1..=6 * every + 1 {
                let (before, weights) = (e.scale(), e.weights().to_vec());
                let element = (k % 8) as usize;
                e.observe(element);
                if e.scale() == before / decay {
                    // No fold: the access wrote one weight and the scale.
                    for (i, (a, b)) in e.weights().iter().zip(&weights).enumerate() {
                        assert!(i == element || a.to_bits() == b.to_bits());
                    }
                    continue;
                }
                let gap = k - last_fold;
                assert!(
                    gap + 1 >= every && gap <= every + 1,
                    "decay {decay}: fold after {gap} accesses, expected {every} ± 1"
                );
                assert!((1.0..FOLD_AT).contains(&e.scale()));
                (last_fold, folds) = (k, folds + 1);
            }
            assert!(folds >= 5, "decay {decay}: {folds} folds");
        }
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically_across_folds() {
        let stream = skewed_stream(16, 3_000, 400, 3);
        let mut whole = ProfileEstimator::new(16, 0.9).unwrap();
        whole.observe_all(&stream);
        for cut in [1, 421, 422, 1_000, 2_999] {
            let mut head = ProfileEstimator::new(16, 0.9).unwrap();
            head.observe_all(&stream[..cut]);
            let mut resumed = ProfileEstimator::from_state(
                head.weights().to_vec(),
                head.scale(),
                0.9,
                head.observations(),
            )
            .unwrap();
            resumed.observe_all(&stream[cut..]);
            assert_eq!(resumed.scale().to_bits(), whole.scale().to_bits());
            assert_eq!(resumed.observations(), whole.observations());
            for (a, b) in resumed.weights().iter().zip(whole.weights()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn from_state_rejects_bad_scale_and_weights() {
        let ok = vec![1.0, 0.0, 2.5];
        assert!(ProfileEstimator::from_state(ok.clone(), 1.0, 0.9, 3).is_ok());
        assert!(ProfileEstimator::from_state(ok.clone(), FOLD_AT * 0.75, 0.9, 3).is_ok());
        for scale in [f64::NAN, f64::INFINITY, 0.0, 0.5, -1.0, FOLD_AT] {
            assert!(
                matches!(
                    ProfileEstimator::from_state(ok.clone(), scale, 0.9, 3),
                    Err(CoreError::InvalidValue {
                        what: "profile scale",
                        ..
                    })
                ),
                "scale {scale}"
            );
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let weights = vec![1.0, bad, 2.5];
            assert!(
                matches!(
                    ProfileEstimator::from_state(weights, 1.0, 0.9, 3),
                    Err(CoreError::InvalidValue {
                        what: "profile weight",
                        index: Some(1),
                        ..
                    })
                ),
                "weight {bad}"
            );
        }
        assert!(ProfileEstimator::from_state(vec![], 1.0, 0.9, 0).is_err());
        assert!(ProfileEstimator::from_state(ok, 1.0, 0.0, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "element out of range")]
    fn estimator_observe_oob_panics() {
        let mut e = ProfileEstimator::new(2, 1.0).unwrap();
        e.observe(2);
    }
}
