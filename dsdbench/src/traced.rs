//! Traced solves: the program's `dsd-obs` recorder folded into a
//! `ProfileTree`, giving per-span-path self times and the solver's
//! counters. The benchmark adds no tracing inside the program; it only
//! installs the recorder the program already reports to.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use dsd_core::Environment;
use dsd_obs::{ProfileRow, ProfileTree, Recorder};

use crate::layers::MOVE_KINDS;
use crate::metrics::Values;
use crate::workload::{self, Solve, Workload};

/// One solve under an installed recorder.
pub struct Traced {
    pub solve: Solve,
    pub tree: ProfileTree,
    /// Per-solve metrics from the trace: event count, fold time,
    /// attribution, span-path self times and solver counters.
    pub values: Values,
}

/// Runs `f` under a fresh recorder and folds what it recorded, with the
/// recorder's counters attached. Returns `f`'s result, the tree, the
/// number of events and the fold time in seconds.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, ProfileTree, usize, f64) {
    let recorder = Recorder::new();
    let out = {
        let _guard = recorder.install();
        f()
    };
    let events = recorder.drain_events();
    let started = Instant::now();
    let mut tree = ProfileTree::from_events(&events);
    let fold_s = started.elapsed().as_secs_f64();
    tree.attach_counters(&recorder.metrics_snapshot().counters);
    (out, tree, events.len(), fold_s)
}

pub fn traced_solve(workload: Workload, env: &Environment, budget: u64) -> Traced {
    let (solve, tree, events, fold_s) = record(|| workload::solve(workload, env, budget));
    let mut values = profile_values(&tree);
    values.insert("obs.events".into(), events as f64);
    values.insert("obs.fold_s".into(), fold_s);
    values.insert("obs.attributed_pct".into(), 100.0 * tree.attributed_fraction());
    let counter = |name: &str| tree.counters.get(name).copied().unwrap_or(0) as f64;
    for series in ["trials", "accepted"] {
        for kind in MOVE_KINDS {
            let name = format!("solver.{series}.{kind}");
            values.insert(format!("trace.{name}"), counter(&name));
        }
    }
    let (hits, recomputed) = (counter("eval.delta_hits"), counter("eval.scenarios_recomputed"));
    values.insert(
        "scenario_cache.hit_ratio".into(),
        if hits + recomputed > 0.0 { hits / (hits + recomputed) } else { 0.0 },
    );
    Traced { solve, tree, values }
}

/// Seconds summed over rows matching `keep`, self or total time.
fn secs(rows: &[ProfileRow], keep: impl Fn(&ProfileRow) -> bool, total: bool) -> f64 {
    let ns: u64 =
        rows.iter().filter(|r| keep(r)).map(|r| if total { r.total_ns } else { r.self_ns }).sum();
    ns as f64 / 1e9
}

/// Self time of the solver's named frames, and pricing time
/// (`recovery.annual_penalties` below greedy or refit). Span paths
/// contain `;`, so each gets a fixed metric name.
fn profile_values(tree: &ProfileTree) -> Values {
    let rows = tree.rows();
    let named = |name: &'static str| move |r: &ProfileRow| r.name == name;
    let family = |prefix: &'static str, frame: &'static str| {
        move |r: &ProfileRow| r.name.starts_with(prefix) || r.name == frame
    };
    let pricing_under = |stage: &'static str| {
        move |r: &ProfileRow| {
            r.name == "recovery.annual_penalties" && r.path.split(';').any(|p| p == stage)
        }
    };
    let worker_self = secs(&rows, named("portfolio.worker"), false);
    let worker_total = secs(&rows, named("portfolio.worker"), true);
    Values::from([
        ("profile.greedy.self_s".into(), secs(&rows, named("solver.greedy"), false)),
        ("profile.greedy.pricing_s".into(), secs(&rows, pricing_under("solver.greedy"), true)),
        ("profile.refit.self_s".into(), secs(&rows, named("solver.refit"), false)),
        ("profile.refit.pricing_s".into(), secs(&rows, pricing_under("solver.refit"), true)),
        ("profile.config.self_s".into(), secs(&rows, named("config.optimize"), false)),
        ("profile.anneal.self_s".into(), secs(&rows, family("anneal.", "portfolio.anneal"), false)),
        ("profile.tabu.self_s".into(), secs(&rows, family("tabu.", "portfolio.tabu"), false)),
        ("profile.worker.self_s".into(), worker_self),
        (
            "portfolio.idle_share".into(),
            if worker_total > 0.0 { worker_self / worker_total } else { 0.0 },
        ),
    ])
}

/// Writes `<name>.collapsed` (flamegraph stacks) and
/// `<name>.profile.json` into `dir`.
pub fn export(dir: &Path, name: &str, tree: &ProfileTree) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.collapsed")), tree.collapsed())?;
    let json = serde_json::to_string_pretty(&tree.to_value()).map_err(io::Error::other)?;
    fs::write(dir.join(format!("{name}.profile.json")), json)
}
