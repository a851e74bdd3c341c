//! `dsdbench`: end-to-end and per-layer benchmark of the `dsd design`
//! pipeline (`DesignSolver` or `Portfolio` with an `EvalCache`, then
//! certification against the environment's lower bound).
//!
//! ```text
//! dsdbench --workload <case_study|fleet32|fleet32_portfolio> --seed <n>
//!          --seconds <s> --trace <0|1> [--budget <n>] [--corrupt-cost]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced solves;
//! `--trace 1` prints per-layer metrics and writes the traced profile
//! (collapsed stacks and JSON) into `dsdbench/out/`. The last line of standard
//! output is the result object; the line before it is the run record
//! with the machine fingerprint. The exit code is nonzero when any
//! operation failed a check.

mod check;
mod host;
mod layers;
mod metrics;
mod run;
mod stats;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::layers::Reps;
use crate::metrics::{Values, END_TO_END};
use crate::run::Repeat;
use crate::stats::median;
use crate::workload::Workload;

/// Where traced runs write their profile export.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    budget: u64,
    corrupt_cost: bool,
}

const USAGE: &str = "usage: dsdbench --workload <case_study|fleet32|fleet32_portfolio> \
                     --seed <n> --seconds <s> --trace <0|1> [--budget <n>] [--corrupt-cost]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut budget, mut corrupt_cost) = (None, false);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-cost" {
            corrupt_cost = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--budget" => budget = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        budget: budget.unwrap_or(workload.budget()),
        corrupt_cost,
    })
}

/// What one run measured and checked.
struct RunResult {
    values: Values,
    attempted: u64,
    failures: Vec<String>,
    setups: usize,
    solves: usize,
}

/// Untraced run: repeated set-ups, then repeated solves, then a check
/// that apply/undo pairs on the winner restore its cost.
fn end_to_end(args: &Args) -> RunResult {
    let started = Instant::now();
    let w = args.workload;
    let setups = run::setups(w, Repeat { window: 0.25 * args.seconds, min: 5, max: 1001 });
    let left = args.seconds - started.elapsed().as_secs_f64();
    let series = run::solve_series(
        w,
        &setups.env,
        args.budget,
        Repeat { window: left, min: 5, max: 1001 },
        args.corrupt_cost,
    );
    let (mut attempted, mut failures) = (series.attempted, series.failures);
    if let Some(winner) = &series.winner {
        let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
        let replayed = layers::replay_moves(&setups.env, winner, &mut rng, 0);
        attempted += replayed.pairs;
        failures.extend(replayed.failures);
    }
    // Peak resident set while solving, with the environment resident:
    // the median over solves, each measured from a trimmed heap and a
    // reset peak; the whole run's peak where the reset is not allowed.
    let peak_rss = if series.peak_rss_mib.is_empty() {
        host::peak_rss_mib().unwrap_or(f64::NAN)
    } else {
        median(&series.peak_rss_mib)
    };
    let q = &series.quality;
    let values = Values::from([
        ("setup_s".into(), median(&setups.secs)),
        ("solve_s".into(), median(&series.secs)),
        ("evals_per_s".into(), median(&series.evals_per_s)),
        ("cost_ratio".into(), median(&q.iter().map(|q| q.cost_ratio).collect::<Vec<_>>())),
        ("protected_pct".into(), median(&q.iter().map(|q| q.protected_pct).collect::<Vec<_>>())),
        ("peak_rss_mb".into(), peak_rss),
    ]);
    RunResult { values, attempted, failures, setups: setups.secs.len(), solves: series.secs.len() }
}

/// Traced run: set-ups and untraced solves (the baseline for the
/// tracing overhead and the source of replay inputs), traced solves,
/// then per-layer replays on the winner. Writes the profile export.
fn per_layer(args: &Args) -> RunResult {
    let w = args.workload;
    let s = args.seconds;
    let setups = run::setups(w, Repeat { window: 0.15 * s, min: 3, max: 1001 });
    let env = &setups.env;
    let series = run::solve_series(
        w,
        env,
        args.budget,
        Repeat { window: 0.25 * s, min: 3, max: 1001 },
        args.corrupt_cost,
    );
    let (mut attempted, mut failures) = (series.attempted, series.failures);

    let mut values = Values::new();
    let mut per_solve: Vec<Values> = Vec::new();
    let mut traced_secs = Vec::new();
    let mut tree = dsd_obs::ProfileTree::default();
    let started = Instant::now();
    let repeat = Repeat { window: 0.3 * s, min: 3, max: 1001 };
    while repeat.more(traced_secs.len(), started) {
        let t = traced::traced_solve(w, env, args.budget);
        attempted += 1;
        if let Err(e) = check::check_design(env, &t.solve.outcome, args.corrupt_cost) {
            failures.push(format!("traced solve: {e}"));
            break;
        }
        traced_secs.push(t.solve.secs);
        tree.merge(&t.tree);
        per_solve.push(t.values);
    }
    for name in per_solve.first().map(|v| v.keys().cloned().collect::<Vec<_>>()).unwrap_or_default()
    {
        let series: Vec<f64> = per_solve.iter().map(|v| v[&name]).collect();
        values.insert(name, median(&series));
    }
    values.insert(
        "obs.trace_overhead_pct".into(),
        100.0 * (median(&traced_secs) / median(&series.secs) - 1.0),
    );

    values.insert("bounds.lower_bound_s".into(), median(&setups.bound_secs));
    let stat = |f: &dyn Fn(&dsd_core::SolveStats) -> f64| {
        median(&series.stats.iter().map(f).collect::<Vec<_>>())
    };
    values.insert("design_solver.greedy_s".into(), stat(&|s| s.greedy_time.as_secs_f64()));
    values.insert("design_solver.refit_s".into(), stat(&|s| s.refit_time.as_secs_f64()));
    values.insert("design_solver.completion_s".into(), stat(&|s| s.completion_time.as_secs_f64()));
    values.insert("design_solver.greedy_builds".into(), stat(&|s| s.greedy_builds as f64));
    values.insert("design_solver.nodes_evaluated".into(), stat(&|s| s.nodes_evaluated as f64));
    values.insert("eval_cache.hit_ratio".into(), median(&series.cache_hit_ratio));
    let counts = &series.portfolio;
    let count = |f: &dyn Fn(&workload::PortfolioCounts) -> u64| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    values.insert("portfolio.tasks".into(), count(&|c| c.tasks));
    values.insert("portfolio.steals".into(), count(&|c| c.steals));
    values.insert("portfolio.adoptions".into(), count(&|c| c.adoptions));
    values.insert("portfolio.incumbent_generations".into(), count(&|c| c.incumbent_generations));

    if let Some(winner) = &series.winner {
        // Timing pass, untraced.
        let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
        let mut replayed = layers::replay_moves(env, winner, &mut rng, 3);
        layers::replay_layers(env, winner, &mut rng, Reps { cheap: 51, costly: 21 }, &mut replayed);
        attempted += replayed.pairs;
        failures.extend(replayed.failures);
        for (name, _) in metrics::per_layer() {
            if let Some(median) = replayed.samples.median(&name) {
                values.insert(name, median);
            }
        }
        // Export pass: the same replays once more, under a recorder.
        let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
        let (_, replay_tree, _, _) = traced::record(|| {
            let mut r = layers::replay_moves(env, winner, &mut rng, 0);
            layers::replay_layers(env, winner, &mut rng, Reps { cheap: 1, costly: 1 }, &mut r);
        });
        tree.merge(&replay_tree);
    }
    attempted += 1;
    match tree.verify() {
        Ok(()) => {
            let dir = Path::new(OUT_DIR);
            if let Err(e) = traced::export(dir, w.name(), &tree) {
                failures.push(format!("profile export to {}: {e}", dir.display()));
            }
        }
        Err(e) => failures.push(format!("profile tree: {e}")),
    }
    RunResult { values, attempted, failures, setups: setups.secs.len(), solves: series.secs.len() }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let steal_before = host::steal_seconds();
    let mut result = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    let steal = match (steal_before, host::steal_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };

    let catalogue: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let selected = metrics::select(&catalogue, &result.values).unwrap_or_else(|e| {
        result.failures.push(e);
        Vec::new()
    });
    let failed = result.failures.len() as u64;
    for f in &result.failures {
        eprintln!("dsdbench: failed: {f}");
    }
    let record = [
        ("workload", metrics::quote(args.workload.name())),
        ("trace", u8::from(args.trace).to_string()),
        ("seed", args.seed.to_string()),
        ("budget", args.budget.to_string()),
        ("workers", args.workload.workers().to_string()),
        ("available_parallelism", host::parallelism().to_string()),
        ("cpu_model", metrics::quote(&host::cpu_model())),
        ("git_sha", metrics::quote(&host::git_sha())),
        ("host_steal_s", if steal.is_finite() { format!("{steal:?}") } else { "null".into() }),
        ("setups", result.setups.to_string()),
        ("solves", result.solves.to_string()),
        ("wall_s", format!("{:?}", started.elapsed().as_secs_f64())),
    ];
    let fields: Vec<String> =
        record.iter().map(|(k, v)| format!("{}: {v}", metrics::quote(k))).collect();
    println!("{{\"record\": {{{}}}}}", fields.join(", "));
    println!("{}", metrics::result_line(failed == 0, result.attempted.max(1), failed, &selected));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
