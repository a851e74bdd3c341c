//! Correctness checks applied to every design a run produces. A design
//! that fails any of them counts as a failed operation.

use dsd_core::{CostBreakdown, Environment, SolveOutcome};
use dsd_recovery::RecoveryPath;

/// Quality figures of a design that passed every check.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// The winner's score over the certified lower bound.
    pub cost_ratio: f64,
    /// Share of the winner's app × failure-scope penalty items, percent,
    /// whose recovery path is not `Unprotected`.
    pub protected_pct: f64,
    /// Bits of the winner's score, for determinism checks.
    pub score_bits: u64,
}

/// The four cost components whose bits an evaluation must reproduce.
pub fn cost_bits(cost: &CostBreakdown) -> [u64; 4] {
    [
        cost.outlay.as_f64().to_bits(),
        cost.penalties.outage.as_f64().to_bits(),
        cost.penalties.loss.as_f64().to_bits(),
        cost.total().as_f64().to_bits(),
    ]
}

/// Checks a certified solve's winner:
/// - it is complete and passes `Candidate::validate`;
/// - a fresh full evaluation reproduces the solver's cost bit for bit;
/// - its certificate holds (cost ≥ bound);
/// - its cost attribution folds back to the objective.
///
/// `corrupt_cost` flips the lowest bit of the solver's reported total
/// before the comparison, so the benchmark's own smoke check can show a
/// wrong cost is caught.
pub fn check_design(
    env: &Environment,
    outcome: &SolveOutcome,
    corrupt_cost: bool,
) -> Result<Quality, String> {
    let best = outcome.best.as_ref().ok_or("the solve returned no design")?;
    if !best.is_complete(env) {
        return Err(format!(
            "design covers {} of {} apps",
            best.assigned_count(),
            env.workloads.len()
        ));
    }
    best.validate(env)?;

    let mut reported = cost_bits(best.cost());
    if corrupt_cost {
        reported[3] ^= 1;
    }
    let mut fresh = best.clone();
    // Drops the cached cost, so `evaluate` runs the full oracle.
    fresh.provision_mut();
    let oracle = cost_bits(fresh.evaluate(env));
    if oracle != reported {
        return Err(format!("oracle cost bits {oracle:x?} differ from the solver's {reported:x?}"));
    }

    let certificate = outcome.bound.as_ref().ok_or("the solve was not certified")?;
    certificate.verify()?;

    let attribution = fresh.attribution(env);
    attribution.verify()?;
    let items = &attribution.penalty_items;
    if items.is_empty() {
        return Err("the attribution lists no penalty items".to_string());
    }
    let protected = items.iter().filter(|i| i.path != RecoveryPath::Unprotected).count();

    let score = env.score(best.cost()).as_f64();
    Ok(Quality {
        cost_ratio: score / env.certified_lower_bound().total.as_f64(),
        protected_pct: 100.0 * protected as f64 / items.len() as f64,
        score_bits: score.to_bits(),
    })
}
