//! **Age ablation** (DESIGN.md extension) — perceived *age* (expected
//! time since the first unseen change) under the PF-optimal and GF-optimal
//! schedules, across interest skew (aligned case).
//!
//! The weighted mean age is infinite as soon as *any* accessed object is
//! starved — and optimal-freshness schedules legitimately starve hopeless
//! objects (paper §7 notes "a significant number of objects do not get
//! refreshed at all"). So this experiment reports the two informative
//! components:
//!
//! * **starved interest mass** — the fraction of accesses landing on
//!   objects whose age grows without bound;
//! * **finite-part age** — the perceived age over the refreshed objects.
//!
//! Headline: as skew rises, the interest-blind GF schedule starves an
//! order of magnitude more *interest mass* than the PF schedule — those
//! users don't just see occasional staleness, they see unboundedly old
//! data.

use freshen_bench::{header, parallel_map, row, THETA_GRID};
use freshen_core::exec::Executor;
use freshen_core::freshness::steady_state_age;
use freshen_core::policy::sum_terms;
use freshen_core::problem::Problem;
use freshen_solver::{solve_general_freshness, solve_perceived_freshness};
use freshen_workload::scenario::{Alignment, Scenario};

/// (starved interest mass, finite-part perceived age) for a schedule.
fn age_components(problem: &Problem, freqs: &[f64]) -> (f64, f64) {
    let columns = [problem.access_probs(), problem.change_rates(), freqs];
    let [starved_mass, finite_age] = sum_terms(columns, &Executor::serial(), |[p, lam, f]| {
        if lam <= 0.0 || p == 0.0 {
            [0.0, 0.0]
        } else if f <= 0.0 {
            [p, 0.0]
        } else {
            [0.0, p * steady_state_age(lam, f)]
        }
    });
    (starved_mass, finite_age)
}

fn main() {
    println!("# Age ablation (aligned case): starved interest mass and finite-part age");
    header(&[
        "theta",
        "starved_mass_PF",
        "starved_mass_GF",
        "finite_age_PF",
        "finite_age_GF",
    ]);
    let results = parallel_map(&THETA_GRID, |&theta| {
        let problem = Scenario::table2(theta, Alignment::Aligned, 42)
            .problem()
            .expect("table2 scenario builds");
        let pf = solve_perceived_freshness(&problem).expect("PF solve");
        let gf = solve_general_freshness(&problem).expect("GF solve");
        let (sm_pf, fa_pf) = age_components(&problem, &pf.frequencies);
        let (sm_gf, fa_gf) = age_components(&problem, &gf.frequencies);
        (theta, sm_pf, sm_gf, fa_pf, fa_gf)
    });
    for (theta, sm_pf, sm_gf, fa_pf, fa_gf) in results {
        row(&format!("{theta:.1}"), &[sm_pf, sm_gf, fa_pf, fa_gf]);
    }
    println!("# starved mass = fraction of accesses hitting objects whose age is unbounded");
}
