//! The three workloads: their inputs, their set-up, and one solve each,
//! mirroring what `dsd design` does (optionally with `--portfolio`).

use std::time::Instant;

use dsd_core::{
    Budget, DesignSolver, Environment, EvalCache, Portfolio, SolveOutcome, DEFAULT_CACHE_CAPACITY,
};
use dsd_scenarios::environments::peer_sites;
use dsd_scenarios::fleet::{fleet, FleetParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Seed of every instance and of every solver run. Pinned, so that the
/// designs (and so `cost_ratio` and `protected_pct`) repeat bit for bit
/// from run to run; the benchmark's `--seed` picks the replay sample.
pub const INSTANCE_SEED: u64 = 2006;

/// Seeds the portfolio races, one greedy, anneal and tabu task each.
const PORTFOLIO_SEEDS: [u64; 4] = [2006, 2007, 2008, 2009];

/// Applications in the fleet workloads.
const FLEET_APPS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §4.3 case study: 8 apps on two peer sites.
    CaseStudy,
    /// A 32-app, four-site mesh fleet solved by `DesignSolver`.
    Fleet32,
    /// The same fleet raced by the work-stealing `Portfolio`.
    Fleet32Portfolio,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CaseStudy, Workload::Fleet32, Workload::Fleet32Portfolio];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CaseStudy => "case_study",
            Workload::Fleet32 => "fleet32",
            Workload::Fleet32Portfolio => "fleet32_portfolio",
        }
    }

    /// Iteration budget of one solve: case_study runs long enough for
    /// refit to dominate; fleet32 gets two greedy builds plus refit; the
    /// portfolio budget is per task.
    pub fn budget(self) -> u64 {
        match self {
            Workload::CaseStudy => 2000,
            Workload::Fleet32 => 96,
            Workload::Fleet32Portfolio => 16,
        }
    }

    /// Worker threads: `min(2, nproc)` for the portfolio, else one.
    pub fn workers(self) -> usize {
        match self {
            Workload::Fleet32Portfolio => crate::host::parallelism().min(2),
            _ => 1,
        }
    }

    pub fn environment(self) -> Environment {
        match self {
            Workload::CaseStudy => peer_sites(),
            Workload::Fleet32 | Workload::Fleet32Portfolio => {
                fleet(&FleetParams::new(FLEET_APPS).with_seed(INSTANCE_SEED))
            }
        }
    }
}

/// One set-up: the environment is built and its certified lower bound
/// computed — everything paid before the first design is priced.
pub struct Setup {
    pub env: Environment,
    /// Build plus bound, seconds.
    pub secs: f64,
    /// The bound alone, seconds.
    pub bound_secs: f64,
}

pub fn setup(workload: Workload) -> Setup {
    let started = Instant::now();
    let env = workload.environment();
    let bound_started = Instant::now();
    env.certified_lower_bound();
    let bound_secs = bound_started.elapsed().as_secs_f64();
    Setup { env, secs: started.elapsed().as_secs_f64(), bound_secs }
}

/// Cooperation counters of a portfolio solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortfolioCounts {
    pub tasks: u64,
    pub steals: u64,
    pub adoptions: u64,
    pub incumbent_generations: u64,
}

/// One certified solve and its wall time.
pub struct Solve {
    pub outcome: SolveOutcome,
    pub secs: f64,
    pub portfolio: Option<PortfolioCounts>,
}

/// Runs one solve at `budget` with a fresh evaluation cache, as
/// `dsd design` does, and certifies the winner against the bound.
pub fn solve(workload: Workload, env: &Environment, budget: u64) -> Solve {
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let budget = Budget::iterations(budget);
    let started = Instant::now();
    let (mut outcome, portfolio) = match workload {
        Workload::CaseStudy | Workload::Fleet32 => {
            let mut rng = ChaCha8Rng::seed_from_u64(INSTANCE_SEED);
            (DesignSolver::new(env).with_cache(&cache).solve(budget, &mut rng), None)
        }
        Workload::Fleet32Portfolio => {
            let run = Portfolio::new(env).with_workers(workload.workers()).solve_with_cache(
                budget,
                &PORTFOLIO_SEEDS,
                &cache,
            );
            let counts = PortfolioCounts {
                tasks: run.tasks,
                steals: run.steals,
                adoptions: run.adoptions,
                incumbent_generations: run.incumbent_generations,
            };
            (run.outcome, Some(counts))
        }
    };
    let secs = started.elapsed().as_secs_f64();
    outcome.certify(env);
    Solve { outcome, secs, portfolio }
}
