//! Delta evaluation against full re-evaluation on a refit-style trial
//! set. Starting from a solved four-sites(16) design, every trial move
//! (each app's config sweep at its current placement, plus a one-unit
//! addition for every active route, tape library and array) is costed
//! both ways: clone + full `evaluate`, and `evaluate_delta` with a
//! scope-keyed scenario cache plus `undo_move`. Every delta cost must be
//! bit-identical to the full oracle, and the best warm delta sweep must
//! not be slower than the best full sweep.

use std::time::Duration;

use dsd_core::{Budget, Candidate, DesignSolver, Environment, Move, ScenarioOutcomeCache};
use dsd_obs::Stopwatch;
use dsd_scenarios::environments::four_sites;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The trial set a refit / resource-addition pass would explore from
/// `base`.
fn trial_moves(env: &Environment, base: &Candidate) -> Vec<Move> {
    let mut moves = Vec::new();
    for (&app, assignment) in base.assignments() {
        let technique = env.catalog.get(assignment.technique).expect("assigned technique");
        for config in technique.config_space() {
            moves.push(Move::Reassign {
                app,
                technique: assignment.technique,
                config,
                placement: assignment.placement,
            });
        }
    }
    for route in base.provision().active_routes() {
        moves.push(Move::AddLinks { route, extra: 1 });
    }
    for tape in base.provision().provisioned_tapes() {
        moves.push(Move::AddTapeDrives { tape, extra: 1 });
    }
    for array in base.provision().provisioned_arrays() {
        moves.push(Move::AddArrayUnits { array, extra: 1 });
    }
    moves
}

#[test]
fn delta_evaluation_is_bit_identical_and_not_slower_than_full() {
    const REPS: usize = 5;
    let env = four_sites(16);
    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    let base = DesignSolver::new(&env)
        .solve(Budget::iterations(20), &mut rng)
        .best
        .expect("solver finds a feasible design");
    let moves = trial_moves(&env, &base);

    // Untimed oracle pass: the full-evaluation total (None for an
    // infeasible move) per trial.
    let full_costs: Vec<Option<u64>> = moves
        .iter()
        .map(|mv| {
            let mut trial = base.clone();
            trial.apply_move(&env, mv).ok().map(|_| trial.evaluate(&env).total().as_f64().to_bits())
        })
        .collect();

    // The two modes run interleaved, individually timed sweeps so slow
    // machine phases hit both equally; each mode is judged by its
    // fastest sweep. The first delta sweep fills a cold scenario cache
    // and is left out, as the refit loop runs on one warm cache.
    let mut delta = base.clone();
    let mut cache = ScenarioOutcomeCache::new();
    let mut mismatches = 0usize;
    let (mut full_best, mut delta_best) = (Duration::MAX, Duration::MAX);
    for rep in 0..REPS {
        let start = Stopwatch::start();
        for mv in &moves {
            let mut trial = base.clone();
            if trial.apply_move(&env, mv).is_ok() {
                assert!(trial.evaluate(&env).total().as_f64().is_finite());
            }
        }
        full_best = full_best.min(start.elapsed());

        let start = Stopwatch::start();
        for (mv, expected) in moves.iter().zip(&full_costs) {
            let got = match delta.evaluate_delta(&env, mv, &mut cache) {
                Ok((cost, undo)) => {
                    let bits = cost.total().as_f64().to_bits();
                    delta.undo_move(undo);
                    Some(bits)
                }
                Err(_) => None,
            };
            if got != *expected {
                mismatches += 1;
            }
        }
        if rep > 0 {
            delta_best = delta_best.min(start.elapsed());
        }
    }
    assert_eq!(mismatches, 0, "delta evaluation must be bit-identical to the full oracle");

    // Both sweeps cover the same move set, so the ratio of best sweep
    // times is the ratio of evaluation rates.
    let speedup = full_best.as_secs_f64() / delta_best.as_secs_f64();
    println!(
        "{} trial moves: best full sweep {:.1} ms, best delta sweep {:.1} ms, speedup {speedup:.2}x",
        moves.len(),
        full_best.as_secs_f64() * 1e3,
        delta_best.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 1.0,
        "delta evaluation ({delta_best:?} per sweep) must not be slower than full \
         re-evaluation ({full_best:?} per sweep)"
    );
}
