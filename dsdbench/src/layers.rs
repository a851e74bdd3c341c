//! Per-layer replays: calls into each layer's public functions on inputs
//! taken from the workload's own solve (its winner, and the greedy's
//! technique × placement trial set for one app), each call timed alone.
//!
//! Every call runs inside a `bench.*` span. With no recorder installed a
//! span is one thread-local check, so the timing pass is untraced; a
//! second pass under a recorder puts the replays into the exported
//! profile.

use std::time::Instant;

use dsd_core::{
    Candidate, CandidateKey, ConfigurationSolver, Environment, Move, PlacementOptions,
    Reconfigurator, ScenarioOutcomeCache, Thoroughness,
};
use dsd_failure::FailureScope;
use dsd_obs as obs;
use dsd_recovery::Evaluator;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::check::cost_bits;
use crate::stats::Samples;

/// The four move kinds, by `Move::kind` label.
pub const MOVE_KINDS: [&str; 4] = ["reassign", "add_links", "add_tape_drives", "add_array_units"];

/// Scope kinds of failure scenarios, as metric-name suffixes.
pub const SCOPE_KINDS: [&str; 3] = ["data_object", "disk_array", "site_disaster"];

/// The resource-addition limits `DesignSolver` completes nodes with.
const ADDITION_LIMITS: (usize, usize) = (4, 32);

/// Repetitions of each replay.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Calls of each cheap function (enumeration, clone, key, failure
    /// enumeration).
    pub cheap: usize,
    /// Calls of each expensive function (full evaluation, pricing,
    /// completion, reconfiguration).
    pub costly: usize,
}

/// What a replay produced: per-call samples, apply/undo pairs checked,
/// and the checks that failed.
#[derive(Debug, Default)]
pub struct Replayed {
    pub samples: Samples,
    pub pairs: u64,
    pub failures: Vec<String>,
}

/// Runs `f` inside a span named `name` and records its wall time in
/// microseconds under `metric`.
fn timed<T>(samples: &mut Samples, name: &'static str, metric: &str, f: impl FnOnce() -> T) -> T {
    let _span = obs::span(name, "bench");
    let started = Instant::now();
    let out = f();
    samples.push(metric, started.elapsed().as_secs_f64() * 1e6);
    out
}

/// A base design and the moves replayed on it.
struct MoveSet {
    kind: &'static str,
    base: Candidate,
    moves: Vec<Move>,
}

/// The move sets replayed on `winner`: the greedy's trial set for one
/// app picked by `rng` (every eligible technique × placement at its
/// default configuration, tried on the design without that app), and a
/// one-unit addition on every provisioned route, tape library and array.
fn move_sets(env: &Environment, winner: &Candidate, rng: &mut ChaCha8Rng) -> Vec<MoveSet> {
    let apps: Vec<_> = winner.assignments().keys().copied().collect();
    let app = apps[rng.gen_range(0..apps.len())];
    let mut without = winner.clone();
    without.remove_app(app);
    let class = env.workloads[app].class_with(&env.thresholds);
    let mut reassign = Vec::new();
    for (technique, t) in env.catalog.eligible_for(class) {
        for placement in PlacementOptions::enumerate(env, technique) {
            reassign.push(Move::Reassign { app, technique, config: t.default_config(), placement });
        }
    }
    let provision = winner.provision();
    vec![
        MoveSet { kind: "reassign", base: without, moves: reassign },
        MoveSet {
            kind: "add_links",
            base: winner.clone(),
            moves: provision
                .active_routes()
                .into_iter()
                .map(|route| Move::AddLinks { route, extra: 1 })
                .collect(),
        },
        MoveSet {
            kind: "add_tape_drives",
            base: winner.clone(),
            moves: provision
                .provisioned_tapes()
                .into_iter()
                .map(|tape| Move::AddTapeDrives { tape, extra: 1 })
                .collect(),
        },
        MoveSet {
            kind: "add_array_units",
            base: winner.clone(),
            moves: provision
                .provisioned_arrays()
                .into_iter()
                .map(|array| Move::AddArrayUnits { array, extra: 1 })
                .collect(),
        },
    ]
}

/// Replays apply/undo and `evaluate_delta`/undo pairs of every move set,
/// checking that each undo restores the base design's cost bit for bit
/// and that the base still matches a fresh full evaluation at the end.
pub fn replay_moves(
    env: &Environment,
    winner: &Candidate,
    rng: &mut ChaCha8Rng,
    passes: usize,
) -> Replayed {
    let mut out = Replayed::default();
    for MoveSet { kind, mut base, moves } in move_sets(env, winner, rng) {
        let mut scache = ScenarioOutcomeCache::new();
        let baseline = cost_bits(base.evaluate_with(env, &mut scache));
        let (apply, undo, delta) = (
            format!("candidate.apply_us.{kind}"),
            format!("candidate.undo_us.{kind}"),
            format!("candidate.evaluate_delta_us.{kind}"),
        );
        let (mut pairs, mut failures) = (0u64, Vec::new());
        let mut restored = |base: &Candidate, what: &str| {
            pairs += 1;
            if base.cost_if_evaluated().map(cost_bits) != Some(baseline) {
                failures.push(format!("{kind}: {what}/undo did not restore the cost bits"));
            }
        };
        // Pass 0 warms the scenario cache and is not recorded.
        for pass in 0..=passes {
            let mut warm = Samples::default();
            let samples = if pass == 0 { &mut warm } else { &mut out.samples };
            for mv in &moves {
                let Ok(token) =
                    timed(samples, "bench.apply_move", &apply, || base.apply_move(env, mv))
                else {
                    continue;
                };
                timed(samples, "bench.undo_move", &undo, || base.undo_move(token));
                restored(&base, "apply");
                let applied = timed(samples, "bench.evaluate_delta", &delta, || {
                    base.evaluate_delta(env, mv, &mut scache)
                })
                .expect("a move that applied once applies again from the same state");
                base.undo_move(applied.1);
                restored(&base, "evaluate_delta");
            }
        }
        out.pairs += pairs;
        out.failures.append(&mut failures);
        let mut fresh = base.clone();
        fresh.provision_mut();
        if cost_bits(fresh.evaluate(env)) != baseline {
            out.failures.push(format!("{kind}: replayed design no longer matches the oracle"));
        }
        if let Err(e) = base.validate(env) {
            out.failures.push(format!("{kind}: replayed design invalid: {e}"));
        }
    }
    out
}

/// The winner's assignments re-made at default configurations on a
/// fresh provision: a design as greedy leaves it, before completion.
/// Apps whose default configuration does not fit keep the winner's; if
/// even that fails, the winner itself is completed.
fn skeleton(env: &Environment, winner: &Candidate) -> Candidate {
    let mut c = Candidate::empty(env);
    for (&app, a) in winner.assignments() {
        let default = env.catalog[a.technique].default_config();
        if c.try_assign(env, app, a.technique, default, a.placement).is_err()
            && c.try_assign(env, app, a.technique, a.config, a.placement).is_err()
        {
            return winner.clone();
        }
    }
    c
}

/// Times every other layer's public entry points on the winner.
pub fn replay_layers(
    env: &Environment,
    winner: &Candidate,
    rng: &mut ChaCha8Rng,
    reps: Reps,
    out: &mut Replayed,
) {
    let s = &mut out.samples;
    for _ in 0..reps.cheap {
        let placements = timed(s, "bench.enumerate_placements", "candidate.enumerate_us", || {
            env.catalog.ids().map(|t| PlacementOptions::enumerate(env, t).len()).sum::<usize>()
        });
        s.push("candidate.placements", placements as f64);
        std::hint::black_box(timed(s, "bench.clone", "candidate.clone_us", || winner.clone()));
        std::hint::black_box(timed(s, "bench.candidate_key", "eval_cache.key_us", || {
            CandidateKey::of(winner, Thoroughness::Quick, ADDITION_LIMITS)
        }));
        let scenarios = timed(s, "bench.failure_enumerate", "failure.enumerate_us", || {
            env.failures.enumerate(winner.primaries())
        });
        s.push("recovery.scenarios", scenarios.len() as f64);
    }

    let protections = winner.protections(env);
    let scenarios = env.failures.enumerate(winner.primaries());
    let evaluator = Evaluator::new(&env.workloads, winner.provision(), env.recovery);
    let config =
        ConfigurationSolver::new(env).with_addition_limits(ADDITION_LIMITS.0, ADDITION_LIMITS.1);
    let bare = skeleton(env, winner);
    let mut reconf = Reconfigurator::new(0.9);
    let mut successes = 0u64;
    for _ in 0..reps.costly {
        let mut fresh = winner.clone();
        fresh.provision_mut();
        timed(s, "bench.evaluate", "candidate.evaluate_us", || {
            fresh.evaluate(env);
        });
        std::hint::black_box(timed(
            s,
            "bench.annual_penalties",
            "recovery.annual_penalties_us",
            || evaluator.annual_penalties(&protections, &scenarios),
        ));
        for scenario in &scenarios {
            let kind = match scenario.scope {
                FailureScope::DataObject { .. } => SCOPE_KINDS[0],
                FailureScope::DiskArray { .. } => SCOPE_KINDS[1],
                FailureScope::SiteDisaster { .. } => SCOPE_KINDS[2],
            };
            let metric = format!("recovery.evaluate_scenario_us.{kind}");
            std::hint::black_box(timed(s, "bench.evaluate_scenario", &metric, || {
                evaluator.evaluate_scenario(&protections, &scenario.scope)
            }));
        }
        // Each completion starts from an empty scenario cache: the cost
        // of completing a node the search has not priced before.
        for (thoroughness, name, metric) in [
            (Thoroughness::Quick, "bench.complete_quick", "config_solver.complete_quick_us"),
            (Thoroughness::Full, "bench.complete_full", "config_solver.complete_full_us"),
        ] {
            let mut node = bare.clone();
            let mut scache = ScenarioOutcomeCache::new();
            std::hint::black_box(timed(s, name, metric, || {
                config.complete_with(&mut node, thoroughness, &mut scache)
            }));
        }
        let mut node = winner.clone();
        let mut scache = ScenarioOutcomeCache::new();
        node.evaluate_with(env, &mut scache);
        if timed(s, "bench.reconfigure", "reconfigure.reconfigure_us", || {
            reconf.reconfigure_with(env, &mut node, &mut scache, rng)
        }) {
            successes += 1;
        }
    }
    if reps.costly > 0 {
        s.push("reconfigure.success_ratio", successes as f64 / reps.costly as f64);
    }
}
