//! The poll-credit ledger audit: bandwidth accounting as an enforced
//! invariant.
//!
//! The dispatcher's credit is a conserved quantity. Per epoch:
//!
//! ```text
//! credit_in + accrued = executed + retained + shed
//! ```
//!
//! * `credit_in` — backlog carried in from the previous epoch;
//! * `accrued` — `Σ fᵢ · epoch_len`, the epoch's scheduled work;
//! * `executed` — successful polls (each consumed exactly one credit at
//!   admission);
//! * `retained` — backlog carried out to the next epoch;
//! * `shed` — credit the backlog cap discarded, *explicitly accounted*.
//!
//! Anything that leaks outside those buckets is a conservation bug — the
//! class of bug where a poll abandoned after failed retries used to
//! destroy its admission-deducted credit silently. [`LedgerAudit`]
//! re-derives both sides from independent inputs (the frequency vector,
//! the outcome counters, and the dispatcher's credit totals) every
//! epoch, so a regression cannot hide behind the dispatcher's own
//! bookkeeping.
//!
//! Enable it with [`EngineConfig::audit`](crate::EngineConfig::audit);
//! breaches increment the `audit.violations` obs counter and are kept as
//! per-epoch [`EpochLedger`] records retrievable from
//! [`Engine::ledger`](crate::Engine::ledger).

use freshen_core::numeric::neumaier_sum;

use crate::dispatch::EpochOutcome;

/// One epoch's conservation-law bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochLedger {
    /// Epoch index.
    pub epoch: usize,
    /// Total credit entering the epoch.
    pub credit_in: f64,
    /// Credit accrued this epoch (`Σ fᵢ·epoch_len`, compensated).
    pub accrued: f64,
    /// Successful polls (one credit each).
    pub executed: u64,
    /// Polls abandoned after exhausting retries or budget (their credit
    /// must reappear in `retained` or `shed`, never vanish).
    pub abandoned: u64,
    /// Total credit leaving the epoch.
    pub retained: f64,
    /// Credit discarded by the backlog cap.
    pub shed: f64,
    /// `credit_in + accrued − executed − retained − shed` — zero up to
    /// floating-point accumulation noise when the ledger balances.
    pub residual: f64,
    /// Smallest per-element credit after the epoch (must be ≥ 0).
    pub min_credit: f64,
    /// Did this epoch break the conservation law?
    pub violated: bool,
}

impl EpochLedger {
    /// The tolerance the residual was judged against: proportional to
    /// the epoch's credit volume, since the residual only carries
    /// per-element f64 rounding.
    pub fn tolerance(&self) -> f64 {
        1e-9 * (1.0 + self.credit_in.abs() + self.accrued.abs())
    }
}

/// Accumulates [`EpochLedger`] records over a run and counts breaches.
#[derive(Debug, Clone, Default)]
pub struct LedgerAudit {
    epochs: Vec<EpochLedger>,
    violations: u64,
}

impl LedgerAudit {
    /// An empty ledger.
    pub fn new() -> Self {
        LedgerAudit::default()
    }

    /// Record one epoch. `credit_in`/`retained`/`min_credit` come from
    /// the dispatcher's credit totals sampled around `run_epoch`;
    /// `freqs` and `epoch_len` independently re-derive the accrual.
    /// Returns the record (also kept internally).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        epoch: usize,
        credit_in: f64,
        freqs: &[f64],
        epoch_len: f64,
        outcome: &EpochOutcome,
        retained: f64,
        min_credit: f64,
    ) -> EpochLedger {
        let accrued = neumaier_sum(freqs.iter().map(|&f| f * epoch_len));
        let executed = outcome.polls.len() as u64;
        let residual = credit_in + accrued - executed as f64 - retained - outcome.shed;
        let mut ledger = EpochLedger {
            epoch,
            credit_in,
            accrued,
            executed,
            abandoned: outcome.abandoned,
            retained,
            shed: outcome.shed,
            residual,
            min_credit,
            violated: false,
        };
        ledger.violated = residual.abs() > ledger.tolerance() || min_credit < -1e-12;
        if ledger.violated {
            self.violations += 1;
        }
        self.epochs.push(ledger);
        ledger
    }

    /// Every epoch recorded so far, in order.
    pub fn epochs(&self) -> &[EpochLedger] {
        &self.epochs
    }

    /// Number of epochs that broke the conservation law.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// True iff every recorded epoch balanced.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Largest absolute residual seen (0 for an empty ledger).
    pub fn max_residual(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.residual.abs())
            .fold(0.0, f64::max)
    }

    /// Drop all records (the engine resets the ledger per run).
    pub fn clear(&mut self) {
        self.epochs.clear();
        self.violations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dispatch::PollDispatcher;
    use crate::source::PollSource;
    use freshen_obs::Recorder;

    struct AlwaysChanged;
    impl PollSource for AlwaysChanged {
        fn poll(&mut self, _element: usize, _time: f64) -> bool {
            true
        }
    }

    /// Drive a real dispatcher under saturation + failures and let the
    /// ledger check every epoch — the engine-independent version of the
    /// invariant the runtime enforces behind `EngineConfig::audit`.
    #[test]
    fn real_dispatcher_epochs_balance() {
        let cfg = EngineConfig {
            failure_rate: 0.35,
            max_retries: 1,
            budget_factor: 0.7,
            seed: 3,
            ..EngineConfig::default()
        };
        let freqs = [2.0, 1.5, 1.0, 0.5];
        let mut dispatcher = PollDispatcher::new(4, 5.0, &cfg).unwrap();
        let mut ledger = LedgerAudit::new();
        let mut abandoned = 0;
        for epoch in 0..10 {
            let credit_in = dispatcher.total_credit();
            let outcome = dispatcher
                .run_epoch(
                    epoch,
                    epoch as f64,
                    1.0,
                    &freqs,
                    &[4.0, 3.0, 2.0, 1.0],
                    &mut AlwaysChanged,
                    &Recorder::disabled(),
                )
                .unwrap();
            let record = ledger.record(
                epoch,
                credit_in,
                &freqs,
                1.0,
                &outcome,
                dispatcher.total_credit(),
                dispatcher.min_credit(),
            );
            assert!(!record.violated, "epoch {epoch}: {record:?}");
            abandoned += outcome.abandoned;
        }
        assert!(ledger.is_clean());
        assert_eq!(ledger.epochs().len(), 10);
        assert!(ledger.max_residual() < 1e-9);
        assert!(abandoned > 0, "saturation + failures must abandon polls");
    }

    /// Fabricate the pre-fix bug: an epoch whose retained credit is one
    /// poll short of balancing (the abandoned poll's credit destroyed).
    #[test]
    fn destroyed_credit_is_flagged() {
        let outcome = EpochOutcome {
            polls: Vec::new(),
            starved: vec![true],
            dispatched: 2,
            failures: 2,
            retries: 1,
            abandoned: 1,
            deferred: 0,
            shed: 0.0,
        };
        let mut ledger = LedgerAudit::new();
        // 2.0 accrued, nothing executed, nothing shed — but only 1.0
        // retained: one credit vanished with the abandoned poll.
        let record = ledger.record(0, 0.0, &[2.0], 1.0, &outcome, 1.0, 0.0);
        assert!(record.violated);
        assert!((record.residual - 1.0).abs() < 1e-12);
        assert_eq!(ledger.violations(), 1);
        assert!(!ledger.is_clean());
    }

    #[test]
    fn negative_credit_is_flagged_even_when_balanced() {
        let outcome = EpochOutcome {
            polls: Vec::new(),
            starved: vec![false],
            dispatched: 0,
            failures: 0,
            retries: 0,
            abandoned: 0,
            deferred: 0,
            shed: 0.0,
        };
        let mut ledger = LedgerAudit::new();
        let record = ledger.record(0, -0.5, &[1.0], 1.0, &outcome, 0.5, -0.5);
        assert!(record.violated, "negative credit is a breach on its own");
    }

    #[test]
    fn clear_resets_the_ledger() {
        let outcome = EpochOutcome {
            polls: Vec::new(),
            starved: vec![false],
            dispatched: 0,
            failures: 0,
            retries: 0,
            abandoned: 0,
            deferred: 0,
            shed: 0.0,
        };
        let mut ledger = LedgerAudit::new();
        ledger.record(0, 0.0, &[2.0], 1.0, &outcome, 1.0, 0.0);
        assert!(!ledger.is_clean());
        ledger.clear();
        assert!(ledger.is_clean());
        assert!(ledger.epochs().is_empty());
    }
}
