//! Repeated set-ups and repeated checked solves: the building blocks of
//! both run modes. A run repeats inside itself and reports medians,
//! because single solves on a shared host vary by tens of percent.

use std::time::Instant;

use dsd_core::{Candidate, Environment, SolveStats};

use crate::check::{check_design, Quality};
use crate::host;
use crate::workload::{self, PortfolioCounts, Workload};

/// How many times to repeat a step: at least `min` and at most `max`
/// times, and beyond `min` only while `window` seconds have not passed.
#[derive(Debug, Clone, Copy)]
pub struct Repeat {
    pub window: f64,
    pub min: usize,
    pub max: usize,
}

impl Repeat {
    pub fn more(&self, done: usize, started: Instant) -> bool {
        done < self.min || (done < self.max && started.elapsed().as_secs_f64() < self.window)
    }
}

/// Repeated set-ups; the environment of the last one is kept.
pub struct Setups {
    pub secs: Vec<f64>,
    pub bound_secs: Vec<f64>,
    pub env: Environment,
}

pub fn setups(workload: Workload, repeat: Repeat) -> Setups {
    let started = Instant::now();
    let (mut secs, mut bound_secs) = (Vec::new(), Vec::new());
    let mut env = None;
    while repeat.more(secs.len(), started) {
        let s = workload::setup(workload);
        secs.push(s.secs);
        bound_secs.push(s.bound_secs);
        env = Some(s.env);
    }
    Setups { secs, bound_secs, env: env.expect("at least one set-up runs") }
}

/// Repeated solves, each checked. The first is a warm-up: checked and
/// counted, but left out of the timing series.
#[derive(Default)]
pub struct Series {
    pub secs: Vec<f64>,
    pub evals_per_s: Vec<f64>,
    pub quality: Vec<Quality>,
    pub stats: Vec<SolveStats>,
    pub cache_hit_ratio: Vec<f64>,
    pub portfolio: Vec<PortfolioCounts>,
    /// Peak resident set during each solve, MiB (empty when the peak
    /// cannot be reset between solves).
    pub peak_rss_mib: Vec<f64>,
    /// The winner of the last solve that passed every check.
    pub winner: Option<Candidate>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

pub fn solve_series(
    workload: Workload,
    env: &Environment,
    budget: u64,
    repeat: Repeat,
    corrupt_cost: bool,
) -> Series {
    let mut series = Series::default();
    let started = Instant::now();
    let mut warm = true;
    while warm || repeat.more(series.secs.len(), started) {
        host::release_free_memory();
        let peak_reset = host::reset_peak_rss();
        let solve = workload::solve(workload, env, budget);
        let peak_rss = host::peak_rss_mib().filter(|_| peak_reset);
        series.attempted += 1;
        let quality = match check_design(env, &solve.outcome, corrupt_cost) {
            Ok(q) => q,
            Err(e) => {
                series.failures.push(format!("solve {}: {e}", series.attempted));
                // A broken solver stays broken; stop repeating it.
                if series.failures.len() >= 3 {
                    break;
                }
                continue;
            }
        };
        // Sequential solves are deterministic under the pinned seed.
        if workload != Workload::Fleet32Portfolio {
            if let Some(first) = series.quality.first() {
                if first.score_bits != quality.score_bits {
                    series.failures.push(format!(
                        "solve {}: score differs from the first solve of the run",
                        series.attempted
                    ));
                }
            }
        }
        series.winner = solve.outcome.best;
        if warm {
            warm = false;
            series.quality.push(quality);
            continue;
        }
        series.secs.push(solve.secs);
        series.evals_per_s.push(solve.outcome.stats.nodes_evaluated as f64 / solve.secs);
        series.quality.push(quality);
        series.stats.push(solve.outcome.stats);
        series.cache_hit_ratio.push(solve.outcome.cache.map_or(0.0, |c| c.hit_rate()));
        series.portfolio.extend(solve.portfolio);
        series.peak_rss_mib.extend(peak_rss);
    }
    series
}
