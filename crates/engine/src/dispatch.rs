//! Bandwidth-budgeted priority poll dispatcher.
//!
//! Each epoch the active schedule's frequencies accrue *poll credit* per
//! element (`fᵢ · epoch_len`, carrying fractions across epochs). Whole
//! credits become poll requests, ordered by a priority key — the engine
//! passes `p̂ᵢ · λ̂ᵢ`, the marginal value density of refreshing `i` — and
//! admitted greedily until the epoch's bandwidth budget is spent.
//!
//! An epoch's cost follows its admitted polls, not its requests. Every
//! element holding whole credits plans one packed `u128` key: priority
//! descending, then element, with the element's copy count in the low
//! bits. The budget admits at most ⌊budget⌋ polls and every planned
//! element brings at least one, so only the top ⌊budget⌋ keys can be
//! reached: they are selected and sorted, and the rest are deferred
//! unordered. Admitted polls run at evenly spaced instants in admission
//! order, which is already time order; retries merge in from a small
//! heap on the same `(time, seq)` key.
//!
//! Degradation is graceful and explicit:
//!
//! * requests beyond the budget are **deferred** — their credit survives
//!   into the next epoch, where they compete again (the element is served
//!   stale meanwhile);
//! * backlog beyond [`max_backlog`] polls is **shed** so a persistently
//!   saturated budget degrades to a lower steady-state poll rate instead
//!   of an unbounded queue;
//! * failed poll attempts (injected deterministically from the seed) are
//!   **retried** with linear backoff while budget and the retry cap
//!   allow, then **abandoned** — the admission-deducted credit returns to
//!   the element's backlog (still subject to the cap, overflow is shed),
//!   so an abandoned refresh competes again next epoch instead of
//!   silently vanishing.
//!
//! Credit obeys a per-epoch conservation law checked by the engine's
//! ledger audit ([`LedgerAudit`](crate::audit::LedgerAudit)):
//!
//! ```text
//! credit_in + accrued = executed + retained + shed
//! ```
//!
//! where `executed` counts successful polls (one credit each), `retained`
//! is the backlog carried into the next epoch, and `shed` is everything
//! the cap discarded. Credit is never negative and never silently
//! destroyed.
//!
//! Everything — admission order, dispatch instants, failure draws — is a
//! pure function of the configuration and the epoch inputs, which is what
//! makes engine runs byte-for-byte reproducible.
//!
//! [`max_backlog`]: crate::config::EngineConfig::max_backlog

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use freshen_core::error::{CoreError, Result};
use freshen_core::numeric::neumaier_sum;
use freshen_core::rng::SplitMix64;
use freshen_obs::Recorder;

use crate::config::EngineConfig;
use crate::source::PollSource;

/// One successful poll, in dispatch order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedPoll {
    /// Polled element.
    pub element: usize,
    /// Dispatch instant (periods).
    pub time: f64,
    /// Did the source report new content?
    pub changed: bool,
    /// Attempt number that succeeded (0 = first try).
    pub attempts: u32,
}

/// Everything one epoch of dispatching produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Successful polls in execution (time) order.
    pub polls: Vec<ExecutedPoll>,
    /// Elements that were budget-starved this epoch (deferred, shed, or
    /// abandoned polls) — accesses to them are "served stale".
    pub starved: Vec<bool>,
    /// Poll attempts actually executed (including retries).
    pub dispatched: u64,
    /// Attempts that failed.
    pub failures: u64,
    /// Failed attempts that were re-queued.
    pub retries: u64,
    /// Polls abandoned after exhausting retries or budget.
    pub abandoned: u64,
    /// Planned polls pushed past this epoch by the budget.
    pub deferred: u64,
    /// Backlog credit shed by the cap (in polls, fractional).
    pub shed: f64,
}

/// Latency buckets (periods from epoch start to dispatch) for the
/// `engine.dispatch_latency` histogram.
pub const LATENCY_BUCKETS: [f64; 7] = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Uniform draw in `[0, 1)` keyed by `(seed, element, attempt-index)`:
/// the first output of a [`SplitMix64`] seeded with the mixed key.
/// Keying on the element's lifetime attempt counter (not the epoch) keeps
/// failure histories comparable across policies run on the same seed.
fn failure_draw(seed: u64, element: usize, attempt_index: u64) -> f64 {
    let key = seed
        ^ (element as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ attempt_index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    SplitMix64::new(key).next_f64()
}

/// Map `x` onto `u64` so that unsigned order is [`f64::total_cmp`] order:
/// the signed key `total_cmp` itself compares, shifted to unsigned.
fn ascending_key(x: f64) -> u64 {
    let b = x.to_bits() as i64;
    let k = b ^ (((b >> 63) as u64) >> 1) as i64;
    (k as u64) ^ (1 << 63)
}

/// Inverse of [`ascending_key`].
fn from_ascending_key(key: u64) -> f64 {
    let k = (key ^ (1 << 63)) as i64;
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// One planned element: `priority` descending, then `element` ascending
/// in unsigned order, with its whole-credit `copies` in the low bits.
/// Keys are unique, so any sort or selection over them is deterministic.
fn plan_key(priority: f64, element: usize, copies: u32) -> u128 {
    u128::from(!ascending_key(priority)) << 64 | (element as u128) << 32 | u128::from(copies)
}

/// The `(element, copies)` a [`plan_key`] holds.
fn unpack(key: u128) -> (usize, u32) {
    ((key >> 32) as u32 as usize, key as u32)
}

/// A failed attempt waiting for its backoff instant. Fields compare in
/// drain order: dispatch instant (as its [`ascending_key`]), then push
/// sequence, which is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Retry {
    time: u64,
    seq: u64,
    element: u32,
    attempt: u32,
}

/// The dispatcher: owns per-element credit and failure state across
/// epochs, plus scratch buffers that are empty between epochs and kept
/// only for their capacity.
#[derive(Debug)]
pub struct PollDispatcher {
    credit: Vec<f64>,
    attempt_counter: Vec<u64>,
    /// One [`plan_key`] per element holding whole credits.
    plan: Vec<u128>,
    /// Elements of the admitted polls, in admission order.
    admitted: Vec<u32>,
    /// Pending retries, earliest `(time, seq)` on top.
    retries: BinaryHeap<Reverse<Retry>>,
    /// Epochs in which a scratch buffer grew, summed over the buffers.
    grows: u64,
    bandwidth: f64,
    budget_factor: f64,
    max_backlog: f64,
    failure_rate: f64,
    max_retries: u32,
    retry_backoff: f64,
    seed: u64,
}

impl PollDispatcher {
    /// Create a dispatcher for `n` elements given the engine config and
    /// the problem's bandwidth (polls per period; the Core Problem's
    /// uniform-size model, so one poll costs one budget unit).
    ///
    /// # Errors
    /// `n` must be positive and fit a `u32` (plan keys pack the element
    /// index into 32 bits), and `bandwidth` finite and positive.
    pub fn new(n: usize, bandwidth: f64, config: &EngineConfig) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if u32::try_from(n).is_err() {
            return Err(CoreError::InvalidConfig(format!(
                "the dispatcher indexes at most {} elements, got {n}",
                u32::MAX
            )));
        }
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "dispatch bandwidth",
                index: None,
                value: bandwidth,
            });
        }
        Ok(PollDispatcher {
            credit: vec![0.0; n],
            attempt_counter: vec![0; n],
            plan: Vec::new(),
            admitted: Vec::new(),
            retries: BinaryHeap::new(),
            grows: 0,
            bandwidth,
            budget_factor: config.budget_factor,
            max_backlog: config.max_backlog,
            failure_rate: config.failure_rate,
            max_retries: config.max_retries,
            retry_backoff: config.retry_backoff,
            seed: config.seed,
        })
    }

    /// Outstanding poll credit for one element (for tests/inspection).
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn backlog(&self, element: usize) -> f64 {
        self.credit[element]
    }

    /// Total outstanding poll credit across all elements
    /// (compensated-summed) — the `retained` term of the ledger
    /// conservation law.
    pub fn total_credit(&self) -> f64 {
        neumaier_sum(self.credit.iter().copied())
    }

    /// Smallest per-element credit. The ledger invariant says this never
    /// drops below zero.
    pub fn min_credit(&self) -> f64 {
        self.credit.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Per-element outstanding credit — the checkpointable half of the
    /// dispatcher's cross-epoch state.
    pub fn credit(&self) -> &[f64] {
        &self.credit
    }

    /// Per-element lifetime attempt counters. Together with the seed these
    /// fully determine future failure draws, so checkpointing them extends
    /// the failure stream exactly across a restart.
    pub fn attempt_counts(&self) -> &[u64] {
        &self.attempt_counter
    }

    /// Overwrite the cross-epoch state from a checkpoint. Configuration
    /// (bandwidth, budget, failure model, seed) is not part of the
    /// snapshot — the restored process must be launched with the same
    /// config, which the snapshot's shape header verifies upstream.
    pub fn restore_state(&mut self, credit: Vec<f64>, attempts: Vec<u64>) -> Result<()> {
        let n = self.credit.len();
        if credit.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "dispatcher credit",
                expected: n,
                actual: credit.len(),
            });
        }
        if attempts.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "dispatcher attempt counters",
                expected: n,
                actual: attempts.len(),
            });
        }
        for (i, &c) in credit.iter().enumerate() {
            if !c.is_finite() || c < -1e-12 {
                return Err(CoreError::InvalidValue {
                    what: "dispatcher credit",
                    index: Some(i),
                    value: c,
                });
            }
        }
        self.credit = credit;
        self.attempt_counter = attempts;
        Ok(())
    }

    /// Run one epoch: accrue credit from `freqs`, admit requests by
    /// `priorities` under the budget, execute them (with injected
    /// failures, retries, and backoff) against `source`, and return the
    /// outcome. Dispatch instants are spread over the epoch in admission
    /// order, so higher-priority polls land earlier.
    ///
    /// The epoch budget is `bandwidth · epoch_len · budget_factor`,
    /// derived from the *same* `epoch_len` that drives credit accrual —
    /// budget and accrual can never disagree about the epoch's length.
    ///
    /// # Errors
    /// A non-finite `epoch_start`, a non-finite or non-positive
    /// `epoch_len`, or inputs of the wrong length are rejected before any
    /// credit moves.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch(
        &mut self,
        epoch: usize,
        epoch_start: f64,
        epoch_len: f64,
        freqs: &[f64],
        priorities: &[f64],
        source: &mut dyn PollSource,
        recorder: &Recorder,
    ) -> Result<EpochOutcome> {
        let mut span = recorder.span("engine.dispatch");
        span.arg("epoch", epoch);
        let n = self.credit.len();
        if !epoch_start.is_finite() {
            return Err(CoreError::InvalidValue {
                what: "dispatch epoch start",
                index: None,
                value: epoch_start,
            });
        }
        if !epoch_len.is_finite() || epoch_len <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "dispatch epoch length",
                index: None,
                value: epoch_len,
            });
        }
        if freqs.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "dispatch frequencies",
                expected: n,
                actual: freqs.len(),
            });
        }
        if priorities.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "dispatch priorities",
                expected: n,
                actual: priorities.len(),
            });
        }
        let mut outcome = EpochOutcome {
            polls: Vec::new(),
            starved: vec![false; n],
            dispatched: 0,
            failures: 0,
            retries: 0,
            abandoned: 0,
            deferred: 0,
            shed: 0.0,
        };
        let capacities_before = self.scratch_capacities();

        let budget_per_epoch = self.bandwidth * epoch_len * self.budget_factor;

        // 1. Accrue credit and plan each element's whole credits. No
        // element can ever get more polls admitted than the whole budget
        // allows, and credit beyond the backlog cap is shed below — so
        // planning past `budget + max_backlog` copies per element would
        // only count requests that cannot be served (and a pathological
        // `f · epoch_len` would overflow the copy counter).
        let plan_cap = (budget_per_epoch + self.max_backlog)
            .ceil()
            .min(u32::MAX as f64);
        for (i, ((credit, &f), &priority)) in self
            .credit
            .iter_mut()
            .zip(freqs)
            .zip(priorities)
            .enumerate()
        {
            *credit += f * epoch_len;
            let copies = credit.floor().min(plan_cap) as u32;
            if copies > 0 {
                self.plan.push(plan_key(priority, i, copies));
            }
        }

        // 2. Admit in priority order (value density descending, then
        // element, then copy) under the budget; the rest is deferred.
        // `budget - j` is exact below 2⁵³, so the budget admits at most
        // ⌊budget⌋ copies (the cast saturates, and a budget below one poll
        // gives 0), and each planned element holds at least one: only the
        // top ⌊budget⌋ keys need an order. Past them the budget is spent,
        // so the walk defers every copy of the unsorted tail.
        let slots = budget_per_epoch.floor() as usize;
        let head = if self.plan.len() > slots {
            self.plan.select_nth_unstable(slots);
            slots
        } else {
            self.plan.len()
        };
        self.plan[..head].sort_unstable();
        let mut budget_left = budget_per_epoch;
        for &key in &self.plan {
            let (element, copies) = unpack(key);
            let mut left = copies;
            while left > 0 && budget_left >= 1.0 {
                budget_left -= 1.0;
                self.credit[element] -= 1.0;
                self.admitted.push(element as u32);
                left -= 1;
            }
            if left > 0 {
                outcome.deferred += u64::from(left);
                outcome.starved[element] = true;
            }
        }
        self.plan.clear();

        // 3. Shed backlog beyond the cap (graceful degradation).
        for i in 0..n {
            let excess = self.credit[i] - self.max_backlog;
            if excess > 0.0 {
                outcome.shed += excess;
                outcome.starved[i] = true;
                self.credit[i] = self.max_backlog;
            }
        }

        // 4. Execute in `(time, seq)` order. Admitted poll k runs at the
        // middle of the k-th of equal slots with seq k, so admission order
        // is already time order (priority order ⇒ earlier slots). A
        // retry re-enters at its backoff instant with the next seq after
        // every admitted poll's, so an admitted poll goes first unless a
        // retry is strictly earlier.
        let latency = recorder.histogram("engine.dispatch_latency", &LATENCY_BUCKETS);
        let epoch_end = epoch_start + epoch_len;
        let admitted = self.admitted.len();
        let slot = epoch_len / admitted.max(1) as f64;
        outcome.polls.reserve(admitted);
        let mut next = 0;
        let mut seq = admitted as u64;
        loop {
            let planned = (next < admitted).then_some(epoch_start + (next as f64 + 0.5) * slot);
            let retry_due = self.retries.peek().map(|Reverse(r)| r.time);
            let (time, element, attempt) = match (planned, retry_due) {
                (None, None) => break,
                (Some(time), due) if due.is_none_or(|due| ascending_key(time) <= due) => {
                    let element = self.admitted[next] as usize;
                    next += 1;
                    (time, element, 0)
                }
                _ => {
                    let Reverse(r) = self.retries.pop().expect("a retry is due");
                    (from_ascending_key(r.time), r.element as usize, r.attempt)
                }
            };
            outcome.dispatched += 1;
            let attempt_index = self.attempt_counter[element];
            self.attempt_counter[element] += 1;
            let failed = self.failure_rate > 0.0
                && failure_draw(self.seed, element, attempt_index) < self.failure_rate;
            if failed {
                outcome.failures += 1;
                if attempt < self.max_retries && budget_left >= 1.0 {
                    budget_left -= 1.0;
                    outcome.retries += 1;
                    // Linear backoff, clamped so epochs stay ordered.
                    let due = (time + self.retry_backoff * (attempt + 1) as f64).min(epoch_end);
                    self.retries.push(Reverse(Retry {
                        time: ascending_key(due),
                        seq,
                        element: element as u32,
                        attempt: attempt + 1,
                    }));
                    seq += 1;
                } else {
                    outcome.abandoned += 1;
                    outcome.starved[element] = true;
                    // Return the admission-deducted credit: the refresh
                    // defers to the next epoch rather than losing its
                    // bandwidth. The backlog cap still rules; overflow
                    // is shed, not silently destroyed.
                    let credit = &mut self.credit[element];
                    *credit += 1.0;
                    if *credit > self.max_backlog {
                        outcome.shed += *credit - self.max_backlog;
                        *credit = self.max_backlog;
                    }
                }
                continue;
            }
            let changed = source.poll(element, time);
            latency.observe(time - epoch_start);
            outcome.polls.push(ExecutedPoll {
                element,
                time,
                changed,
                attempts: attempt,
            });
        }
        self.admitted.clear();
        let grown = capacities_before
            .iter()
            .zip(self.scratch_capacities())
            .filter(|&(&before, after)| after > before)
            .count() as u64;
        if grown > 0 {
            self.grows += grown;
            recorder.counter("engine.queue_grows").add(grown);
        }
        Ok(outcome)
    }

    fn scratch_capacities(&self) -> [usize; 3] {
        [
            self.plan.capacity(),
            self.admitted.capacity(),
            self.retries.capacity(),
        ]
    }

    /// Lifetime capacity-growth events of the dispatcher's scratch
    /// buffers (the plan, the admitted list and the retry heap): one per
    /// buffer per epoch in which it grew. Steady-state epochs must not
    /// move this — the no-churn regression test in `tests/properties.rs`
    /// asserts it.
    pub fn queue_grows(&self) -> u64 {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplayPollSource;

    /// A source that records poll times and always answers `changed`.
    struct Probe {
        calls: Vec<(usize, f64)>,
    }
    impl PollSource for Probe {
        fn poll(&mut self, element: usize, time: f64) -> bool {
            self.calls.push((element, time));
            true
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    /// Successful polls per element of an `n`-element epoch.
    fn succeeded(outcome: &EpochOutcome, n: usize) -> Vec<u64> {
        let mut counts = vec![0; n];
        for poll in &outcome.polls {
            counts[poll.element] += 1;
        }
        counts
    }

    #[test]
    fn dispatches_schedule_under_ample_budget() {
        let mut d = PollDispatcher::new(2, 10.0, &config()).unwrap();
        let mut probe = Probe { calls: Vec::new() };
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[4.0, 2.0],
                &[1.0, 2.0],
                &mut probe,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(succeeded(&out, 2), vec![4, 2]);
        assert_eq!(out.deferred, 0);
        assert_eq!(out.dispatched, 6);
        // Time-ordered execution, all within the epoch.
        assert!(probe.calls.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(probe.calls.iter().all(|&(_, t)| (0.0..1.0).contains(&t)));
        // Element 1 has twice the priority: its polls occupy the earliest
        // slots.
        assert_eq!(probe.calls[0].0, 1);
        assert_eq!(probe.calls[1].0, 1);
    }

    #[test]
    fn saturated_budget_defers_low_priority_first() {
        let mut cfg = config();
        cfg.budget_factor = 0.5; // budget 5 of 10 planned polls
        let mut d = PollDispatcher::new(2, 10.0, &cfg).unwrap();
        let mut probe = Probe { calls: Vec::new() };
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[5.0, 5.0],
                &[2.0, 1.0],
                &mut probe,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(succeeded(&out, 2)[0], 5, "high priority fully served");
        assert_eq!(succeeded(&out, 2)[1], 0, "low priority fully deferred");
        assert_eq!(out.deferred, 5);
        assert!(out.starved[1] && !out.starved[0]);
        // Deferred credit survives into the next epoch (capped).
        assert!(d.backlog(1) >= cfg.max_backlog - 1e-9);
    }

    #[test]
    fn backlog_is_capped_not_unbounded() {
        let mut cfg = config();
        cfg.budget_factor = 0.1;
        cfg.max_backlog = 2.0;
        let mut d = PollDispatcher::new(1, 10.0, &cfg).unwrap();
        let mut shed_total = 0.0;
        for epoch in 0..5 {
            let out = d
                .run_epoch(
                    epoch,
                    epoch as f64,
                    1.0,
                    &[10.0],
                    &[1.0],
                    &mut Probe { calls: Vec::new() },
                    &Recorder::disabled(),
                )
                .unwrap();
            shed_total += out.shed;
        }
        assert!(d.backlog(0) <= 2.0 + 1e-9, "cap holds");
        assert!(shed_total > 0.0, "persistent saturation sheds backlog");
    }

    #[test]
    fn fractional_credit_carries_across_epochs() {
        let mut d = PollDispatcher::new(1, 10.0, &config()).unwrap();
        let mut first = 0;
        let mut total = 0;
        for epoch in 0..4 {
            let out = d
                .run_epoch(
                    epoch,
                    epoch as f64,
                    1.0,
                    &[0.5],
                    &[1.0],
                    &mut Probe { calls: Vec::new() },
                    &Recorder::disabled(),
                )
                .unwrap();
            if epoch == 0 {
                first = out.dispatched;
            }
            total += out.dispatched;
        }
        assert_eq!(first, 0, "half a credit is not a poll yet");
        assert_eq!(total, 2, "f=0.5 over 4 periods is 2 polls");
    }

    #[test]
    fn failures_are_retried_with_backoff_then_abandoned() {
        let mut cfg = config();
        cfg.failure_rate = 0.999_999; // effectively always fail
        cfg.max_retries = 2;
        cfg.retry_backoff = 0.01;
        let mut d = PollDispatcher::new(1, 10.0, &cfg).unwrap();
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[2.0],
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        // 2 planned polls, each tried 1 + 2 times, all failing.
        assert_eq!(out.dispatched, 6);
        assert_eq!(out.failures, 6);
        assert_eq!(out.retries, 4);
        assert_eq!(out.abandoned, 2);
        assert_eq!(succeeded(&out, 1)[0], 0);
        assert!(out.starved[0]);
    }

    #[test]
    fn abandoned_polls_compete_again_next_epoch() {
        // Regression: abandonment used to destroy the admission-deducted
        // credit, so a poll lost to failures was gone forever. Post-fix
        // the credit returns to the backlog and re-plans next epoch.
        let mut cfg = config();
        cfg.failure_rate = 0.999_999; // every attempt fails
        cfg.max_retries = 1;
        let mut d = PollDispatcher::new(1, 10.0, &cfg).unwrap();
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[2.0],
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out.abandoned, 2);
        assert!(
            d.backlog(0) >= 2.0 - 1e-9,
            "abandoned credit survives: {}",
            d.backlog(0)
        );
        // Next epoch accrues *nothing* — every planned poll comes from
        // the restored credit. Pre-fix this epoch dispatched 0 polls.
        let next = d
            .run_epoch(
                1,
                1.0,
                1.0,
                &[0.0],
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        assert!(
            next.dispatched >= 2,
            "restored credit must re-plan polls, dispatched {}",
            next.dispatched
        );
    }

    #[test]
    fn abandoned_credit_respects_the_backlog_cap() {
        let mut cfg = config();
        cfg.failure_rate = 0.999_999;
        cfg.max_retries = 0;
        cfg.max_backlog = 1.0;
        let mut d = PollDispatcher::new(1, 10.0, &cfg).unwrap();
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[3.0],
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out.abandoned, 3);
        assert!(d.backlog(0) <= 1.0 + 1e-9, "cap holds on restoration");
        assert!(out.shed >= 2.0 - 1e-9, "overflow is shed, not destroyed");
    }

    #[test]
    fn budget_follows_the_epoch_len_passed_to_run_epoch() {
        // Regression: the budget used to be frozen from config.epoch_len
        // at construction, so run_epoch with a different epoch length
        // mis-sized the budget relative to accrual. config.epoch_len is
        // 1.0; dispatch a 2.0-period epoch: accrual 10 credits, budget
        // 10.0 × 2.0 = 20 ⇒ all ten polls admitted.
        let mut d = PollDispatcher::new(1, 10.0, &config()).unwrap();
        let out = d
            .run_epoch(
                0,
                0.0,
                2.0,
                &[5.0],
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out.dispatched, 10, "budget scales with the real epoch");
        assert_eq!(out.deferred, 0);
    }

    #[test]
    fn rejects_invalid_epoch_len() {
        let mut d = PollDispatcher::new(1, 10.0, &config()).unwrap();
        let r = Recorder::disabled();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                d.run_epoch(
                    0,
                    0.0,
                    bad,
                    &[1.0],
                    &[1.0],
                    &mut Probe { calls: Vec::new() },
                    &r
                )
                .is_err(),
                "epoch_len {bad} must be rejected"
            );
        }
    }

    #[test]
    fn pathological_frequencies_plan_bounded_requests() {
        // Regression: a huge f·epoch_len used to allocate one request per
        // whole credit *before* any cap — enough to exhaust memory — and
        // `as u32` silently truncated beyond u32::MAX. Planning is now
        // capped at what budget + backlog could ever admit.
        let mut cfg = config();
        cfg.max_backlog = 2.0;
        let mut d = PollDispatcher::new(1, 5.0, &cfg).unwrap();
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[1e12], // ≫ u32::MAX planned credits pre-fix
                &[1.0],
                &mut Probe { calls: Vec::new() },
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(out.dispatched, 5, "whole budget served");
        assert!(d.backlog(0) <= 2.0 + 1e-9, "cap still holds");
        assert!(out.shed > 1e11, "excess credit is accounted as shed");
    }

    #[test]
    fn credit_ledger_balances_across_epochs() {
        // credit_in + accrued = executed + retained + shed, every epoch,
        // including under failures, retries, abandonment, and shedding.
        let mut cfg = config();
        cfg.failure_rate = 0.4;
        cfg.max_retries = 1;
        cfg.budget_factor = 0.6; // saturated: abandonment + deferral occur
        cfg.seed = 11;
        let freqs = [3.0, 2.5, 0.7, 1.3];
        let mut d = PollDispatcher::new(4, 6.0, &cfg).unwrap();
        let mut abandoned_total = 0;
        for epoch in 0..8 {
            let credit_in = d.total_credit();
            let out = d
                .run_epoch(
                    epoch,
                    epoch as f64,
                    1.0,
                    &freqs,
                    &[4.0, 3.0, 2.0, 1.0],
                    &mut Probe { calls: Vec::new() },
                    &Recorder::disabled(),
                )
                .unwrap();
            let accrued: f64 = freqs.iter().sum();
            let executed = out.polls.len() as f64;
            let residual = credit_in + accrued - executed - d.total_credit() - out.shed;
            assert!(
                residual.abs() < 1e-9,
                "epoch {epoch}: ledger residual {residual}"
            );
            assert!(d.min_credit() >= -1e-12, "credit never goes negative");
            abandoned_total += out.abandoned;
        }
        assert!(abandoned_total > 0, "the run exercised abandonment");
    }

    #[test]
    fn moderate_failures_still_mostly_succeed() {
        let mut cfg = config();
        cfg.failure_rate = 0.2;
        cfg.seed = 5;
        let mut d = PollDispatcher::new(4, 40.0, &cfg).unwrap();
        let mut probe = Probe { calls: Vec::new() };
        let out = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &[6.0; 4],
                &[1.0; 4],
                &mut probe,
                &Recorder::disabled(),
            )
            .unwrap();
        let succeeded: u64 = succeeded(&out, 4).iter().sum();
        assert_eq!(succeeded, 24, "retries recover transient failures");
        assert!(out.failures > 0, "some attempts did fail");
        assert!(probe.calls.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn identical_inputs_identical_outcomes() {
        let run = || {
            let mut cfg = config();
            cfg.failure_rate = 0.3;
            cfg.seed = 99;
            let mut d = PollDispatcher::new(3, 6.0, &cfg).unwrap();
            let mut src = ReplayPollSource::new(
                3,
                &[freshen_workload::trace::PollRecord {
                    time: 0.0,
                    element: 0,
                    changed: true,
                }],
            )
            .unwrap();
            let mut outs = Vec::new();
            for epoch in 0..3 {
                outs.push(
                    d.run_epoch(
                        epoch,
                        epoch as f64,
                        1.0,
                        &[2.0, 2.0, 2.0],
                        &[3.0, 2.0, 1.0],
                        &mut src,
                        &Recorder::disabled(),
                    )
                    .unwrap(),
                );
            }
            outs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let mut d = PollDispatcher::new(2, 5.0, &config()).unwrap();
        let r = Recorder::disabled();
        let mut probe = Probe { calls: Vec::new() };
        assert!(d
            .run_epoch(0, 0.0, 1.0, &[1.0], &[1.0, 1.0], &mut probe, &r)
            .is_err());
        assert!(d
            .run_epoch(0, 0.0, 1.0, &[1.0, 1.0], &[1.0], &mut probe, &r)
            .is_err());
        assert!(PollDispatcher::new(0, 5.0, &config()).is_err());
        assert!(PollDispatcher::new(2, 0.0, &config()).is_err());
    }

    #[test]
    fn failure_draw_is_uniform_ish() {
        let mut below = 0;
        for k in 0..10_000u64 {
            if failure_draw(7, 3, k) < 0.25 {
                below += 1;
            }
        }
        let frac = below as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac}");
    }

    /// A source that logs every poll and answers from a fixed pattern.
    #[derive(Default)]
    struct Log {
        calls: Vec<(usize, u64)>,
    }
    impl PollSource for Log {
        fn poll(&mut self, element: usize, time: f64) -> bool {
            self.calls.push((element, time.to_bits()));
            (element + self.calls.len()).is_multiple_of(3)
        }
    }

    /// A queued attempt in the reference drain, popped in
    /// `(total_cmp(time), seq)` order.
    #[derive(PartialEq)]
    struct Pending {
        time: f64,
        seq: u64,
        element: usize,
        attempt: u32,
    }
    impl Eq for Pending {}
    impl Ord for Pending {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.time.total_cmp(&self.time).then(o.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Pending {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    /// The per-request dispatcher that packed keys replaced, kept as the
    /// oracle: one request per whole credit sorted by the full
    /// comparator, the float admission loop over all of them, and a
    /// `BinaryHeap` drain on `(total_cmp(time), seq)`.
    struct Reference {
        credit: Vec<f64>,
        attempt_counter: Vec<u64>,
        bandwidth: f64,
        config: EngineConfig,
    }

    impl Reference {
        fn new(n: usize, bandwidth: f64, config: &EngineConfig) -> Self {
            Reference {
                credit: vec![0.0; n],
                attempt_counter: vec![0; n],
                bandwidth,
                config: config.clone(),
            }
        }

        fn run_epoch(
            &mut self,
            epoch_start: f64,
            epoch_len: f64,
            freqs: &[f64],
            priorities: &[f64],
            source: &mut dyn PollSource,
        ) -> EpochOutcome {
            let n = self.credit.len();
            let cfg = &self.config;
            let mut outcome = EpochOutcome {
                polls: Vec::new(),
                starved: vec![false; n],
                dispatched: 0,
                failures: 0,
                retries: 0,
                abandoned: 0,
                deferred: 0,
                shed: 0.0,
            };
            let budget = self.bandwidth * epoch_len * cfg.budget_factor;
            let plan_cap = (budget + cfg.max_backlog).ceil().min(u32::MAX as f64);
            let mut requests = Vec::new();
            for (i, (credit, &f)) in self.credit.iter_mut().zip(freqs).enumerate() {
                *credit += f * epoch_len;
                for copy in 0..credit.floor().min(plan_cap) as u32 {
                    requests.push((i, copy));
                }
            }
            requests.sort_by(|&(ea, ca), &(eb, cb)| {
                priorities[eb]
                    .total_cmp(&priorities[ea])
                    .then(ea.cmp(&eb))
                    .then(ca.cmp(&cb))
            });
            let mut budget_left = budget;
            let mut admitted = Vec::new();
            for &(element, _) in &requests {
                if budget_left >= 1.0 {
                    budget_left -= 1.0;
                    self.credit[element] -= 1.0;
                    admitted.push(element);
                } else {
                    outcome.deferred += 1;
                    outcome.starved[element] = true;
                }
            }
            for i in 0..n {
                let excess = self.credit[i] - cfg.max_backlog;
                if excess > 0.0 {
                    outcome.shed += excess;
                    outcome.starved[i] = true;
                    self.credit[i] = cfg.max_backlog;
                }
            }
            let slot = epoch_len / admitted.len().max(1) as f64;
            let mut seq = admitted.len() as u64;
            let mut heap: BinaryHeap<Pending> = admitted
                .iter()
                .enumerate()
                .map(|(k, &element)| Pending {
                    time: epoch_start + (k as f64 + 0.5) * slot,
                    seq: k as u64,
                    element,
                    attempt: 0,
                })
                .collect();
            let epoch_end = epoch_start + epoch_len;
            while let Some(p) = heap.pop() {
                outcome.dispatched += 1;
                let attempt_index = self.attempt_counter[p.element];
                self.attempt_counter[p.element] += 1;
                if cfg.failure_rate > 0.0
                    && failure_draw(cfg.seed, p.element, attempt_index) < cfg.failure_rate
                {
                    outcome.failures += 1;
                    if p.attempt < cfg.max_retries && budget_left >= 1.0 {
                        budget_left -= 1.0;
                        outcome.retries += 1;
                        heap.push(Pending {
                            time: (p.time + cfg.retry_backoff * (p.attempt + 1) as f64)
                                .min(epoch_end),
                            seq,
                            element: p.element,
                            attempt: p.attempt + 1,
                        });
                        seq += 1;
                    } else {
                        outcome.abandoned += 1;
                        outcome.starved[p.element] = true;
                        let credit = &mut self.credit[p.element];
                        *credit += 1.0;
                        if *credit > cfg.max_backlog {
                            outcome.shed += *credit - cfg.max_backlog;
                            *credit = cfg.max_backlog;
                        }
                    }
                    continue;
                }
                let changed = source.poll(p.element, p.time);
                outcome.polls.push(ExecutedPoll {
                    element: p.element,
                    time: p.time,
                    changed,
                    attempts: p.attempt,
                });
            }
            outcome
        }
    }

    /// Bit-level equality of two outcomes (`==` on `f64` conflates
    /// `0.0` with `-0.0`).
    fn assert_same_bits(got: &EpochOutcome, want: &EpochOutcome, what: &str) {
        assert_eq!(got, want, "{what}");
        let times = |o: &EpochOutcome| o.polls.iter().map(|p| p.time.to_bits()).collect::<Vec<_>>();
        assert_eq!(times(got), times(want), "{what}: dispatch instants");
        assert_eq!(got.shed.to_bits(), want.shed.to_bits(), "{what}: shed");
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_the_per_request_reference_bit_for_bit() {
        // Randomized multi-epoch instances: failures with retries, saturated
        // and ample budgets, a budget below one poll, heavy priority ties
        // (with 0.0 against -0.0), fractional frequencies, and a frequency
        // past the planning cap.
        let tied = [0.0, -0.0, 1.0, 1.0, 2.5, 2.5, 1e-300, 7.0];
        let mut rng = SplitMix64::new(0xD15_BA7C4);
        let mut epochs_with_retries = 0;
        for instance in 0..300 {
            let n = 1 + rng.below(40);
            let config = EngineConfig {
                failure_rate: [0.0, 0.2, 0.6][rng.below(3)],
                max_retries: rng.below(4) as u32,
                budget_factor: [0.3, 1.0, 2.0][rng.below(3)],
                max_backlog: [1.0, 2.0, 5.5][rng.below(3)],
                retry_backoff: [0.0, 0.05, 0.3][rng.below(3)],
                seed: rng.next_u64(),
                ..EngineConfig::default()
            };
            let bandwidth = match rng.below(4) {
                0 => 0.7,
                1 => n as f64 * 0.5,
                2 => n as f64 * 1.3 + 0.25,
                _ => n as f64 * 4.0,
            };
            let epoch_len = [1.0, 0.5, 2.0][rng.below(3)];
            let load = [0.25, 1.0][rng.below(2)];
            let mut dispatcher = PollDispatcher::new(n, bandwidth, &config).unwrap();
            let mut reference = Reference::new(n, bandwidth, &config);
            for epoch in 0..6 {
                let mut freqs: Vec<f64> = (0..n).map(|_| load * rng.range(0.0, 4.0)).collect();
                if rng.below(4) == 0 {
                    freqs[rng.below(n)] = 1e6;
                }
                let priorities: Vec<f64> = (0..n)
                    .map(|_| match rng.below(3) {
                        0 => rng.next_f64(),
                        _ => tied[rng.below(tied.len())],
                    })
                    .collect();
                let start = epoch as f64 * epoch_len;
                let (mut got_log, mut want_log) = (Log::default(), Log::default());
                let got = dispatcher
                    .run_epoch(
                        epoch,
                        start,
                        epoch_len,
                        &freqs,
                        &priorities,
                        &mut got_log,
                        &Recorder::disabled(),
                    )
                    .unwrap();
                let want =
                    reference.run_epoch(start, epoch_len, &freqs, &priorities, &mut want_log);
                let what = format!("instance {instance}, epoch {epoch}");
                assert_same_bits(&got, &want, &what);
                assert_eq!(got_log.calls, want_log.calls, "{what}: poll calls");
                assert_eq!(bits(dispatcher.credit()), bits(&reference.credit), "{what}");
                assert_eq!(dispatcher.attempt_counts(), &reference.attempt_counter[..]);
                if got.retries > 0 {
                    epochs_with_retries += 1;
                }
            }
        }
        assert!(
            epochs_with_retries > 150,
            "retries ran: {epochs_with_retries}"
        );
    }

    #[test]
    fn drain_matches_binary_heap_order_with_retries() {
        // Retries at a backoff of a few slots land between later admitted
        // polls; the merged drain must pop exactly as a heap on
        // `(total_cmp(time), seq)` does.
        let cfg = EngineConfig {
            failure_rate: 0.5,
            max_retries: 3,
            retry_backoff: 0.07,
            seed: 3,
            ..config()
        };
        let n = 37;
        let mut d = PollDispatcher::new(n, 4.0 * n as f64, &cfg).unwrap();
        let mut reference = Reference::new(n, 4.0 * n as f64, &cfg);
        let freqs = vec![1.0; n];
        let priorities: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let (mut got_log, mut want_log) = (Log::default(), Log::default());
        let got = d
            .run_epoch(
                0,
                0.0,
                1.0,
                &freqs,
                &priorities,
                &mut got_log,
                &Recorder::disabled(),
            )
            .unwrap();
        let want = reference.run_epoch(0.0, 1.0, &freqs, &priorities, &mut want_log);
        assert_same_bits(&got, &want, "one epoch");
        assert_eq!(got_log.calls, want_log.calls);
        assert!(got.polls.windows(2).all(|w| w[0].time <= w[1].time));
        let interleaved = got
            .polls
            .iter()
            .position(|p| p.attempts > 0)
            .is_some_and(|first_retry| got.polls[first_retry..].iter().any(|p| p.attempts == 0));
        assert!(interleaved, "a retry ran before a later first attempt");
    }

    #[test]
    fn plan_keys_sort_like_the_request_comparator() {
        let priorities = [
            1.0,
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -1.0,
            1.0,
            0.0,
            f64::MAX,
        ];
        for &x in &priorities {
            assert_eq!(from_ascending_key(ascending_key(x)).to_bits(), x.to_bits());
            for &y in &priorities {
                assert_eq!(ascending_key(x).cmp(&ascending_key(y)), x.total_cmp(&y));
            }
        }
        let mut keys: Vec<u128> = (0..priorities.len())
            .map(|i| plan_key(priorities[i], i, 1 + i as u32))
            .collect();
        keys.sort_unstable();
        let mut want: Vec<usize> = (0..priorities.len()).collect();
        want.sort_by(|&a, &b| priorities[b].total_cmp(&priorities[a]).then(a.cmp(&b)));
        let got: Vec<(usize, u32)> = keys.into_iter().map(unpack).collect();
        let want: Vec<(usize, u32)> = want.into_iter().map(|i| (i, 1 + i as u32)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rejects_non_finite_epoch_start_before_moving_credit() {
        let mut d = PollDispatcher::new(2, 10.0, &config()).unwrap();
        let r = Recorder::disabled();
        let mut probe = Probe { calls: Vec::new() };
        d.run_epoch(0, 0.0, 1.0, &[1.5, 0.5], &[1.0, 2.0], &mut probe, &r)
            .unwrap();
        let (credit, attempts) = (bits(d.credit()), d.attempt_counts().to_vec());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = d
                .run_epoch(1, bad, 1.0, &[1.5, 0.5], &[1.0, 2.0], &mut probe, &r)
                .unwrap_err();
            assert!(
                err.to_string().contains("dispatch epoch start"),
                "{bad}: {err}"
            );
            assert_eq!(bits(d.credit()), credit, "{bad}: credit moved");
            assert_eq!(d.attempt_counts(), &attempts[..], "{bad}: attempts moved");
        }
        // -0.0 is a finite start, and the dispatcher stays usable.
        let out = d
            .run_epoch(1, -0.0, 1.0, &[1.5, 0.5], &[1.0, 2.0], &mut probe, &r)
            .unwrap();
        assert_eq!(out.dispatched, 3, "carried halves make whole credits");
    }

    #[test]
    fn empty_epoch_dispatches_nothing() {
        let mut d = PollDispatcher::new(3, 10.0, &config()).unwrap();
        let r = Recorder::disabled();
        let mut probe = Probe { calls: Vec::new() };
        let out = d
            .run_epoch(0, 0.0, 1.0, &[0.0; 3], &[1.0; 3], &mut probe, &r)
            .unwrap();
        assert_eq!((out.dispatched, out.deferred), (0, 0));
        assert!(out.polls.is_empty() && probe.calls.is_empty());
        assert_eq!(d.queue_grows(), 0, "nothing planned, nothing grown");
        let out = d
            .run_epoch(1, 1.0, 1.0, &[1.0, 0.0, 2.0], &[1.0; 3], &mut probe, &r)
            .unwrap();
        assert_eq!(succeeded(&out, 3), vec![1, 0, 2]);
    }

    #[test]
    fn scratch_buffers_are_reused_without_growth() {
        let mut cfg = config();
        cfg.failure_rate = 0.3;
        cfg.seed = 4;
        let mut d = PollDispatcher::new(64, 1000.0, &cfg).unwrap();
        let r = Recorder::disabled();
        let run = |d: &mut PollDispatcher, epoch: usize, f: f64| {
            d.run_epoch(
                epoch,
                epoch as f64,
                1.0,
                &[f; 64],
                &[1.0; 64],
                &mut Probe { calls: Vec::new() },
                &r,
            )
            .unwrap()
        };
        let first = run(&mut d, 0, 8.0);
        assert!(first.retries > 0, "the retry heap was used");
        let grown = d.queue_grows();
        assert!(grown > 0, "the first epoch sizes the buffers");
        // Smaller epochs fit in the storage the first one left.
        for epoch in 1..40 {
            run(&mut d, epoch, 1.0);
        }
        assert_eq!(d.queue_grows(), grown, "shrinking epochs must not allocate");
        assert!(d.plan.is_empty() && d.admitted.is_empty() && d.retries.is_empty());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn rejects_more_elements_than_a_plan_key_indexes() {
        let n = u32::MAX as usize + 1;
        assert!(matches!(
            PollDispatcher::new(n, 5.0, &config()),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
