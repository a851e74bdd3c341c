//! Relaxation lower bounds and optimality certificates.
//!
//! The solvers report a design cost but, by themselves, give no evidence
//! of how far from optimal it is. This module computes a cheap *lower
//! bound* on the total annual cost of **any** complete design over the
//! solvers' discretized configuration space (paper §3.2), by relaxing
//! exactly the couplings that make the real problem hard:
//!
//! * **Per-app relaxation** — each application independently picks its
//!   cheapest eligible technique, ignoring contention with other
//!   applications. Summing per-app minima is valid because both cost
//!   components decompose per application: the outlay floor below charges
//!   each app only for allocation-proportional resources, and
//!   [`dsd_recovery::PenaltySummary`] is an exact sum of per-app
//!   penalties.
//! * **Fractional outlay** — integer disk/cartridge/drive/link/server
//!   counts are relaxed to fractional demand-derived minima priced at the
//!   *cheapest* per-unit rate in the topology. Every priced dimension
//!   (array capacity, tape capacity, tape bandwidth, link bandwidth,
//!   servers) is one whose allocations *sum* across the applications
//!   sharing a device, so per-app fractions never over-count. Array
//!   *bandwidth* is deliberately not priced: on a disk array one unit
//!   serves both dimensions, and `max(cap, bw)` demands do not sum
//!   across apps.
//! * **Relaxed penalties** — each app's penalty floor is its penalty in a
//!   *singleton* design (the app alone in the environment) with every
//!   provisioned device topped up to its spec maximum. A real design
//!   shares spare bandwidth with other applications and enumerates a
//!   superset of failure scenarios, so its per-app penalty can only be
//!   higher.
//! * **Capacity floor on shared enclosures** — the datasets must live on
//!   *some* arrays: at least `ceil(Σ capacity / largest array)` enclosures
//!   (at least two when some application is only protectable by
//!   mirroring), each costing at least the cheapest enclosure fixed
//!   price, plus at least one facility (two when mirror-forced).
//!
//! Each term is a valid bound in isolation and they charge disjoint cost
//! components, so their sum is a valid bound on the total. The
//! [`Certificate`] pairs the bound with an achieved cost and is surfaced
//! by `dsd explain`, [`crate::SolveOutcome::certify`], and the tournament
//! harness; `tests/bound_soundness.rs` re-verifies soundness empirically
//! against exhaustive enumeration, every heuristic, and delta-evaluated
//! move sequences.

use serde::Serialize;

use dsd_protection::{Technique, TechniqueId};
use dsd_resources::ArrayRef;
use dsd_units::{Dollars, HOURS_PER_YEAR};
use dsd_workload::{AppId, ApplicationWorkload};

use crate::candidate::{Candidate, PlacementOptions};
use crate::env::Environment;

/// Cheapest per-unit purchase rates available anywhere in the topology.
/// A resource class that exists nowhere is priced at zero (the relaxation
/// simply charges nothing for it, which keeps the bound valid).
#[derive(Debug, Clone, Copy, Default)]
struct Rates {
    /// $ per GB of disk array capacity.
    array_per_gb: f64,
    /// $ per GB of tape cartridge capacity.
    tape_per_gb: f64,
    /// $ per MB/s of tape drive bandwidth.
    tape_per_mbps: f64,
    /// $ per MB/s of inter-site link bandwidth.
    link_per_mbps: f64,
    /// $ per compute server.
    server: f64,
}

fn min_rate(iter: impl Iterator<Item = f64>) -> f64 {
    iter.filter(|r| r.is_finite() && *r >= 0.0).fold(f64::INFINITY, f64::min)
}

fn finite_or_zero(r: f64) -> f64 {
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

impl Rates {
    fn of(env: &Environment) -> Rates {
        let sites = env.topology.sites();
        let array_per_gb = min_rate(sites.iter().flat_map(|s| s.array_slots.iter()).map(|spec| {
            let unit = spec.capacity_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_capacity_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let tape_specs = || sites.iter().flat_map(|s| s.tape_slots.iter());
        let tape_per_gb = min_rate(tape_specs().map(|spec| {
            let unit = spec.capacity_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_capacity_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let tape_per_mbps = min_rate(tape_specs().map(|spec| {
            let unit = spec.bandwidth_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_bandwidth_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let link_per_mbps = min_rate(env.topology.routes().iter().map(|r| {
            let unit = r.network.link_bandwidth.as_f64();
            if unit > 0.0 {
                r.network.cost_per_link.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let server = min_rate(sites.iter().map(|s| s.compute.cost_per_server.as_f64()));
        Rates {
            array_per_gb: finite_or_zero(array_per_gb),
            tape_per_gb: finite_or_zero(tape_per_gb),
            tape_per_mbps: finite_or_zero(tape_per_mbps),
            link_per_mbps: finite_or_zero(link_per_mbps),
            server: finite_or_zero(server),
        }
    }
}

/// Fractional annual outlay floor for protecting `app` with `technique`,
/// minimized analytically over *every* valid configuration (not just the
/// discrete grid): array gigabytes, tape cartridges/drives, link
/// bandwidth, and servers at the topology's cheapest per-unit rates,
/// amortized like real purchases, plus the (unamortized) annual vault
/// media consumables.
fn technique_outlay_floor(
    env: &Environment,
    app: &ApplicationWorkload,
    t: &Technique,
    rates: &Rates,
) -> Dollars {
    let data_gb = app.capacity().as_f64();
    let mut purchase = 0.0;

    // Primary array capacity (dataset + snapshot space) plus the mirror
    // copy. Both are config-independent; array bandwidth is not priced
    // (see the module docs).
    let mut array_gb = data_gb;
    if t.has_backup() {
        array_gb += data_gb * env.sizing.snapshot_space_fraction;
    }
    if t.has_mirror() {
        array_gb += data_gb;
    }
    purchase += array_gb * rates.array_per_gb;

    if let Some(chain) = t.backup {
        // Retained full copies; the incremental-delta term is omitted
        // because it shrinks with the backup cycle (it is ≥ 0 for every
        // configuration).
        purchase += data_gb * env.sizing.retained_tape_copies * rates.tape_per_gb;
        // The stream rate is data / min(window, cycle) ≥ data / window
        // for every cycle, so the window rate is the config-free floor.
        let window = env.sizing.backup_window.as_secs();
        let mut tape_mbps = if window > 0.0 { app.capacity().as_megabytes() / window } else { 0.0 };
        if chain.is_incremental() {
            tape_mbps += app.unique_update_rate().as_f64();
        }
        purchase += tape_mbps * rates.tape_per_mbps;
    }

    if let Some(m) = t.mirror {
        let net_mbps = if m.sync {
            app.peak_update().as_f64() * env.sizing.sync_peak_headroom
        } else {
            app.avg_update().as_f64()
        };
        purchase += net_mbps * rates.link_per_mbps;
    }

    // One primary server, plus the fractional failover spare share
    // (spare pools hold ceil(ratio × demand) ≥ ratio × demand servers).
    let mut servers = 1.0;
    if t.is_failover() {
        servers += env.sizing.failover_spare_ratio;
    }
    purchase += servers * rates.server;

    let mut annual = Dollars::new(purchase.max(0.0)).amortized_annual();

    // Vault media is an annual consumable, not an amortized purchase.
    if let Some(chain) = t.backup {
        if chain.vault && chain.vault_cycle.as_hours() > 0.0 {
            let shipments = HOURS_PER_YEAR / chain.vault_cycle.as_hours();
            annual += Dollars::new(data_gb * rates.tape_per_gb * shipments);
        }
    }
    annual
}

/// Tops up every device the candidate provisioned to its spec maximum
/// (extra disks, tape drives, links) — the most spare recovery bandwidth
/// any real design could ever give this allocation.
fn max_out(env: &Environment, candidate: &mut Candidate) {
    for r in candidate.provision().provisioned_arrays() {
        let spec = &env.topology.site(r.site).array_slots[r.slot];
        let Some(state) = candidate.provision().array(r) else { continue };
        let headroom =
            spec.max_capacity_units.saturating_sub(state.capacity_units + state.extra_units);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_array_units(r, headroom);
        }
    }
    for r in candidate.provision().provisioned_tapes() {
        let spec = &env.topology.site(r.site).tape_slots[r.slot];
        let Some(state) = candidate.provision().tape(r) else { continue };
        let headroom = spec.max_bandwidth_units.saturating_sub(state.drives + state.extra_drives);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_tape_drives(r, headroom);
        }
    }
    for rid in candidate.provision().active_routes() {
        let spec = &env.topology.route(rid).network;
        let state = candidate.provision().link(rid);
        let headroom = spec.max_links.saturating_sub(state.links + state.extra_links);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_links(rid, headroom);
        }
    }
}

/// Lower bound contribution of a single application: the minimum, over
/// its eligible techniques, of the fractional outlay floor plus the
/// maxed-singleton penalty floor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppBound {
    /// The application.
    pub app: AppId,
    /// Name of the technique achieving the minimum, or `"unplaceable"`
    /// when no eligible technique admits a feasible singleton assignment
    /// (the app then contributes zero — vacuously sound, since no
    /// complete design exists either).
    pub technique: String,
    /// Fractional annual outlay floor of the minimizing technique.
    pub outlay_floor: Dollars,
    /// Relaxed annual penalty floor of the minimizing technique.
    pub penalty_floor: Dollars,
}

impl AppBound {
    /// The app's combined contribution to the bound.
    #[must_use]
    pub fn total(&self) -> Dollars {
        self.outlay_floor + self.penalty_floor
    }
}

/// A relaxation lower bound on the total annual cost of any complete
/// design over the discretized configuration space. See the module docs
/// for why each term is valid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LowerBound {
    /// Per-application floors (one entry per workload, in id order).
    pub per_app: Vec<AppBound>,
    /// Capacity-derived floor on array/tape enclosure fixed costs
    /// (amortized annual).
    pub enclosure_floor: Dollars,
    /// Floor on facility costs (amortized annual): one site, or two when
    /// some application is only protectable by mirroring.
    pub facility_floor: Dollars,
    /// Total outlay-side floor: per-app fractional outlays plus the
    /// enclosure and facility floors.
    pub outlay_floor: Dollars,
    /// Total penalty-side floor: sum of per-app penalty floors.
    pub penalty_floor: Dollars,
    /// The bound itself: `outlay_floor + penalty_floor`.
    pub total: Dollars,
}

impl LowerBound {
    /// Which relaxation term dominates the bound, for display.
    #[must_use]
    pub fn dominant_term(&self) -> &'static str {
        let app_outlay = self.outlay_floor - self.enclosure_floor - self.facility_floor;
        let structural = self.enclosure_floor + self.facility_floor;
        if self.penalty_floor >= app_outlay && self.penalty_floor >= structural {
            "penalty floor"
        } else if app_outlay >= structural {
            "fractional outlay"
        } else {
            "capacity floor"
        }
    }
}

/// Computes the relaxation lower bound for an environment.
///
/// Cost: one maxed-singleton pricing per (app × eligible technique ×
/// *distinct* placement × grid configuration), penalties only — a
/// placement whose primary or mirror is a spec-identical twin of an
/// earlier slot at its site prices exactly like that slot and is skipped
/// (see `first_of_its_spec`). On the four-site fleet(32) mesh, whose
/// sites repeat the paper's slot set, that is 55,296 single-app
/// penalty evaluations instead of 220,032 full ones.
#[must_use]
pub fn lower_bound(env: &Environment) -> LowerBound {
    lower_bound_with(env, distinct_penalty_floor)
}

/// Whether `r` is the first array slot at its site with its spec. A
/// fresh singleton's priced quantities read slot *specs*, never slot
/// indices: one primary yields exactly one disk-array scenario, backups
/// go to the site's first library, and feasibility depends only on spec,
/// site and route. So a later twin prices bit for bit like this slot. A
/// spec unequal to itself (a NaN field) matches no earlier slot and
/// stays its own class.
fn first_of_its_spec(env: &Environment, r: ArrayRef) -> bool {
    let slots = &env.topology.site(r.site).array_slots;
    !slots[..r.slot].contains(&slots[r.slot])
}

/// Minimum maxed-singleton penalty of `app` under technique `tid` over
/// every distinct placement and grid configuration, or `None` when no
/// singleton assignment fits. Every skipped twin placement is enumerated
/// after its canonical one and prices to the same bits, so the minimum
/// (and whether one exists) is unchanged.
fn distinct_penalty_floor(
    env: &Environment,
    app: &ApplicationWorkload,
    tid: TechniqueId,
    t: &Technique,
) -> Option<Dollars> {
    let configs = t.config_space();
    let mut penalty: Option<Dollars> = None;
    for placement in PlacementOptions::enumerate(env, tid) {
        if !first_of_its_spec(env, placement.primary)
            || placement.mirror.is_some_and(|m| !first_of_its_spec(env, m))
        {
            continue;
        }
        for &config in &configs {
            let mut singleton = Candidate::empty(env);
            if singleton.try_assign(env, app.id, tid, config, placement).is_err() {
                continue;
            }
            max_out(env, &mut singleton);
            let p = singleton.penalties(env).total();
            if penalty.is_none_or(|b| p < b) {
                penalty = Some(p);
            }
        }
    }
    penalty
}

/// A per-(app, technique) penalty floor, `None` when no singleton fits.
type PenaltyFloor =
    fn(&Environment, &ApplicationWorkload, TechniqueId, &Technique) -> Option<Dollars>;

/// [`lower_bound`] with the per-(app, technique) penalty floor supplied
/// by `penalty_floor`.
fn lower_bound_with(env: &Environment, penalty_floor: PenaltyFloor) -> LowerBound {
    let rates = Rates::of(env);
    let mut per_app = Vec::with_capacity(env.workloads.len());
    let mut mirror_forced = false;
    let mut backup_forced = false;

    for app in env.workloads.iter() {
        let class = app.class_with(&env.thresholds);
        // (combined, outlay, penalty, name) of the best technique so far.
        let mut best: Option<(Dollars, Dollars, Dollars, String)> = None;
        let mut placeable_all_mirror = true;
        let mut placeable_all_backup = true;
        let mut placeable_any = false;

        for (tid, t) in env.catalog.eligible_for(class) {
            let outlay = technique_outlay_floor(env, app, t, &rates);
            let Some(penalty) = penalty_floor(env, app, tid, t) else { continue };
            placeable_any = true;
            placeable_all_mirror &= t.has_mirror();
            placeable_all_backup &= t.has_backup();
            let combined = outlay + penalty;
            if best.as_ref().is_none_or(|(b, ..)| combined < *b) {
                best = Some((combined, outlay, penalty, t.name.clone()));
            }
        }

        if placeable_any {
            mirror_forced |= placeable_all_mirror;
            backup_forced |= placeable_all_backup;
        }
        per_app.push(match best {
            Some((_, outlay, penalty, name)) => AppBound {
                app: app.id,
                technique: name,
                outlay_floor: outlay,
                penalty_floor: penalty,
            },
            None => AppBound {
                app: app.id,
                technique: "unplaceable".into(),
                outlay_floor: Dollars::ZERO,
                penalty_floor: Dollars::ZERO,
            },
        });
    }

    let (enclosure_floor, facility_floor) = if env.workloads.is_empty() {
        (Dollars::ZERO, Dollars::ZERO)
    } else {
        structural_floors(env, mirror_forced, backup_forced)
    };

    let app_outlay: Dollars = per_app.iter().map(|a| a.outlay_floor).sum();
    let penalty_floor: Dollars = per_app.iter().map(|a| a.penalty_floor).sum();
    let outlay_floor = app_outlay + enclosure_floor + facility_floor;
    LowerBound {
        per_app,
        enclosure_floor,
        facility_floor,
        outlay_floor,
        penalty_floor,
        total: outlay_floor + penalty_floor,
    }
}

/// Enclosure and facility floors (both amortized annual): any complete
/// design stores every dataset on some array and uses at least one site.
fn structural_floors(
    env: &Environment,
    mirror_forced: bool,
    backup_forced: bool,
) -> (Dollars, Dollars) {
    let sites = env.topology.sites();
    let array_specs: Vec<_> = sites.iter().flat_map(|s| s.array_slots.iter()).collect();

    let mut enclosure = Dollars::ZERO;
    if !array_specs.is_empty() {
        let largest = array_specs
            .iter()
            .map(|spec| spec.total_capacity(spec.max_capacity_units).as_f64())
            .fold(0.0f64, f64::max);
        let total_gb: f64 = env.workloads.iter().map(|a| a.capacity().as_f64()).sum();
        let mut count = if largest > 0.0 { (total_gb / largest).ceil().max(1.0) as u32 } else { 1 };
        if mirror_forced {
            count = count.max(2);
        }
        let min_fixed =
            array_specs.iter().map(|s| s.fixed_cost).fold(Dollars::INFINITE, Dollars::min);
        if min_fixed.is_finite() {
            enclosure = (min_fixed * f64::from(count)).amortized_annual();
        }
    }
    if backup_forced {
        let min_tape_fixed = sites
            .iter()
            .flat_map(|s| s.tape_slots.iter())
            .map(|s| s.fixed_cost)
            .fold(Dollars::INFINITE, Dollars::min);
        if min_tape_fixed.is_finite() {
            enclosure += min_tape_fixed.amortized_annual();
        }
    }

    let mut facilities: Vec<Dollars> = sites.iter().map(|s| s.facility_cost).collect();
    facilities.sort_by(|a, b| a.partial_cmp(b).expect("facility costs are finite"));
    let facility = match (facilities.as_slice(), mirror_forced) {
        ([], _) => Dollars::ZERO,
        ([first, second, ..], true) => (*first + *second).amortized_annual(),
        ([first, ..], _) => first.amortized_annual(),
    };
    (enclosure, facility)
}

/// Relative slack used when comparing an achieved cost against the
/// bound: float summation order differs between the bound and the
/// evaluator, so equality holds only to rounding.
pub const CERTIFICATE_TOLERANCE: f64 = 1e-9;

/// An optimality certificate: a lower bound paired with an achieved cost
/// and the resulting gap. Attached to solver outcomes
/// ([`crate::SolveOutcome::certify`]) and printed by `dsd explain`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Certificate {
    /// The certified lower bound on any complete design's total cost.
    pub lower_bound: Dollars,
    /// The evaluated total cost of the design being certified.
    pub achieved: Dollars,
    /// Optimality gap `(achieved - lower_bound) / lower_bound`, percent.
    /// Zero when the bound is zero or the achieved cost is not finite.
    pub gap_pct: f64,
    /// Which relaxation term dominates the bound.
    pub dominant_term: String,
    /// Outlay-side share of the bound (per-app fractional outlays plus
    /// the enclosure/facility floors).
    pub outlay_floor: Dollars,
    /// Penalty-side share of the bound.
    pub penalty_floor: Dollars,
}

impl Certificate {
    /// Builds the certificate for an achieved total cost.
    #[must_use]
    pub fn new(bound: &LowerBound, achieved: Dollars) -> Self {
        let lb = bound.total.as_f64();
        let gap_pct = if lb > 0.0 && achieved.is_finite() {
            ((achieved.as_f64() - lb) / lb * 100.0).max(0.0)
        } else {
            0.0
        };
        Certificate {
            lower_bound: bound.total,
            achieved,
            gap_pct,
            dominant_term: bound.dominant_term().to_string(),
            outlay_floor: bound.outlay_floor,
            penalty_floor: bound.penalty_floor,
        }
    }

    /// Checks the certificate's defining inequality.
    ///
    /// # Errors
    ///
    /// Returns a description when the achieved cost falls below the
    /// lower bound (beyond [`CERTIFICATE_TOLERANCE`]) — either the bound
    /// or the evaluation is buggy, and the result must not be trusted.
    pub fn verify(&self) -> Result<(), String> {
        if self.achieved.as_f64() < self.lower_bound.as_f64() * (1.0 - CERTIFICATE_TOLERANCE) {
            return Err(format!(
                "achieved cost {} falls below the certified lower bound {} — \
                 bound or evaluation is unsound",
                self.achieved, self.lower_bound
            ));
        }
        Ok(())
    }

    /// Publishes the certificate as `bound.lower` / `bound.gap_pct`
    /// gauges into the installed metrics registry (no-op when none is).
    pub fn publish(&self) {
        dsd_obs::gauge("bound.lower", self.lower_bound.as_f64());
        dsd_obs::gauge("bound.gap_pct", self.gap_pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::design_solver::DesignSolver;
    use crate::exhaustive::{exhaustive_optimal_with, ExhaustiveOptions};
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Route, Site, SiteId, Topology};
    use dsd_workload::{GeneratorConfig, WorkloadGenerator, WorkloadSet};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn tiny_env(apps: usize) -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(4)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn bound_is_positive_and_decomposes() {
        let env = tiny_env(2);
        let lb = lower_bound(&env);
        assert!(lb.total > Dollars::ZERO);
        assert_eq!(lb.per_app.len(), 2);
        let app_outlay: Dollars = lb.per_app.iter().map(|a| a.outlay_floor).sum();
        let penalties: Dollars = lb.per_app.iter().map(|a| a.penalty_floor).sum();
        let outlay = app_outlay + lb.enclosure_floor + lb.facility_floor;
        assert!((lb.outlay_floor.as_f64() - outlay.as_f64()).abs() < 1e-6);
        assert!((lb.penalty_floor.as_f64() - penalties.as_f64()).abs() < 1e-6);
        assert!((lb.total.as_f64() - (outlay + penalties).as_f64()).abs() < 1e-6);
        // Two sites carry a mirror-forced gold app: both facility and
        // enclosure floors must reflect two structures.
        assert!(lb.facility_floor >= (Dollars::new(2_000_000.0)).amortized_annual());
        assert!(lb.enclosure_floor >= (Dollars::new(2.0 * 375_000.0)).amortized_annual());
    }

    #[test]
    fn bound_never_exceeds_the_exhaustive_optimum() {
        for apps in [1usize, 2] {
            let env = tiny_env(apps);
            let lb = lower_bound(&env).total;
            let options = ExhaustiveOptions { config_grid: true, ..ExhaustiveOptions::default() };
            let exact = exhaustive_optimal_with(&env, options)
                .expect("tiny space")
                .best
                .expect("feasible")
                .cost()
                .total();
            assert!(
                lb.as_f64() <= exact.as_f64() * (1.0 + CERTIFICATE_TOLERANCE),
                "apps={apps}: bound {lb} exceeds exhaustive optimum {exact}"
            );
        }
    }

    #[test]
    fn bound_never_exceeds_a_heuristic_design() {
        let env = tiny_env(3);
        let lb = lower_bound(&env).total;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let best =
            DesignSolver::new(&env).solve(Budget::iterations(20), &mut rng).best.expect("feasible");
        assert!(lb <= best.cost().total());
    }

    #[test]
    fn unplaceable_apps_contribute_zero() {
        // One site, no tape, low-end array: the gold app has no eligible
        // placement at all.
        let sites =
            vec![Site::new(0, "solo").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
        let env = Environment::new(
            WorkloadSet::scaled_paper_mix(1),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::med())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        let lb = lower_bound(&env);
        assert_eq!(lb.per_app[0].technique, "unplaceable");
        assert_eq!(lb.per_app[0].total(), Dollars::ZERO);
        assert!(lb.total.is_finite());
    }

    #[test]
    fn certificate_math_and_verification() {
        let env = tiny_env(1);
        let lb = lower_bound(&env);
        let good = Certificate::new(&lb, lb.total * 1.25);
        assert!((good.gap_pct - 25.0).abs() < 1e-6);
        assert!(good.verify().is_ok());
        assert!(!good.dominant_term.is_empty());

        let exact = Certificate::new(&lb, lb.total);
        assert_eq!(exact.gap_pct, 0.0);
        assert!(exact.verify().is_ok());

        let bad = Certificate::new(&lb, lb.total * 0.5);
        let err = bad.verify().expect_err("below the bound must be refused");
        assert!(err.contains("below the certified lower bound"), "{err}");
    }

    #[test]
    fn maxed_singleton_has_no_less_spare_than_any_shared_design() {
        // Structural spot-check of the penalty relaxation: topping up a
        // singleton leaves every provisioned device at its spec maximum.
        let env = tiny_env(1);
        let app = env.workloads.iter().next().unwrap();
        let class = app.class_with(&env.thresholds);
        let (tid, t) = env.catalog.eligible_for(class).next().expect("gold technique");
        let placement = PlacementOptions::enumerate(&env, tid)[0];
        let mut c = Candidate::empty(&env);
        c.try_assign(&env, app.id, tid, t.default_config(), placement).expect("fits");
        max_out(&env, &mut c);
        for r in c.provision().provisioned_arrays() {
            let spec = &env.topology.site(r.site).array_slots[r.slot];
            let state = c.provision().array(r).unwrap();
            assert_eq!(state.capacity_units + state.extra_units, spec.max_capacity_units);
        }
    }

    /// The exhaustive penalty floor: every placement, twins included,
    /// priced by a full evaluation. [`lower_bound`] must match it bit for
    /// bit.
    fn reference_penalty_floor(
        env: &Environment,
        app: &ApplicationWorkload,
        tid: TechniqueId,
        t: &Technique,
    ) -> Option<Dollars> {
        let mut penalty: Option<Dollars> = None;
        for placement in PlacementOptions::enumerate(env, tid) {
            for config in t.config_space() {
                let mut singleton = Candidate::empty(env);
                if singleton.try_assign(env, app.id, tid, config, placement).is_err() {
                    continue;
                }
                max_out(env, &mut singleton);
                let p = singleton.evaluate(env).penalties.total();
                if penalty.is_none_or(|b| p < b) {
                    penalty = Some(p);
                }
            }
        }
        penalty
    }

    fn assert_matches_reference(env: &Environment, label: &str) {
        let fast = lower_bound(env);
        let reference = lower_bound_with(env, reference_penalty_floor);
        let bits = |d: Dollars| d.as_f64().to_bits();
        assert_eq!(fast.per_app.len(), reference.per_app.len(), "{label}");
        for (f, r) in fast.per_app.iter().zip(&reference.per_app) {
            assert_eq!(f.app, r.app, "{label}");
            assert_eq!(f.technique, r.technique, "{label}: {} technique", f.app);
            assert_eq!(bits(f.outlay_floor), bits(r.outlay_floor), "{label}: {} outlay", f.app);
            assert_eq!(bits(f.penalty_floor), bits(r.penalty_floor), "{label}: {} penalty", f.app);
        }
        assert_eq!(bits(fast.enclosure_floor), bits(reference.enclosure_floor), "{label}");
        assert_eq!(bits(fast.facility_floor), bits(reference.facility_floor), "{label}");
        assert_eq!(bits(fast.total), bits(reference.total), "{label}: total");
    }

    /// Sites carrying `slot_sets` copies of the paper's slot set (XP1200,
    /// MSA1500, tape library), wired by `routes`: one set per site is the
    /// peer-sites / four-sites layout, more sets are the twin-slot sites
    /// of the fleet generator, which also scales the link budget per set.
    fn slot_set_env(
        workloads: WorkloadSet,
        sites: usize,
        slot_sets: u32,
        routes: &[(usize, usize)],
    ) -> Environment {
        let compute = u32::try_from((2 * workloads.len().div_ceil(sites)).max(8)).unwrap();
        let sites = (0..sites)
            .map(|i| {
                let mut site = Site::new(i, format!("S{i}")).with_compute(compute);
                for _ in 0..slot_sets {
                    site = site
                        .with_array_slot(DeviceSpec::xp1200())
                        .with_array_slot(DeviceSpec::msa1500())
                        .with_tape_library(DeviceSpec::tape_library_high());
                }
                site
            })
            .collect();
        let mut network = NetworkSpec::high();
        network.max_links *= slot_sets;
        let routes = routes
            .iter()
            .map(|&(a, b)| Route { a: SiteId(a), b: SiteId(b), network: network.clone() })
            .collect();
        Environment::new(
            workloads,
            Arc::new(Topology::new(sites, routes)),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    /// Perturbed paper workloads, spread as in the default fleet.
    fn spread_workloads(apps: usize, seed: u64) -> WorkloadSet {
        let config = GeneratorConfig {
            scale_min: 1.0 / 1.5,
            scale_max: 1.5,
            penalty_scale_min: 1.0 / 1.5,
            penalty_scale_max: 1.5,
        };
        WorkloadGenerator::new(config).generate(apps, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn bound_matches_the_exhaustive_reference_on_paper_sites() {
        let peer = slot_set_env(WorkloadSet::scaled_paper_mix(8), 2, 1, &[(0, 1)]);
        assert_matches_reference(&peer, "peer sites");
        let mesh4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let four = slot_set_env(WorkloadSet::scaled_paper_mix(16), 4, 1, &mesh4);
        assert_matches_reference(&four, "four sites");
    }

    #[test]
    fn bound_matches_the_exhaustive_reference_on_twin_slot_fleets() {
        let two = slot_set_env(spread_workloads(12, 2006), 2, 2, &[(0, 1)]);
        assert_matches_reference(&two, "2-site fleet");
        let shapes: [(&str, &[(usize, usize)]); 3] = [
            ("ring", &[(0, 1), (1, 2), (2, 3), (0, 3)]),
            ("mesh", &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            ("hub-spoke", &[(0, 1), (0, 2), (0, 3)]),
        ];
        for (i, (shape, routes)) in shapes.into_iter().enumerate() {
            let env = slot_set_env(spread_workloads(4, 7 + i as u64), 4, 2, routes);
            assert_matches_reference(&env, shape);
        }
    }

    #[test]
    fn near_twin_slots_are_priced_separately() {
        // Same spec as the XP1200 after it except for the disk count: a
        // distinct class, whose merge would price every primary or mirror
        // on this site's high-end arrays at the smaller maximum.
        let mut small = DeviceSpec::xp1200();
        small.max_capacity_units = 16;
        let site = Site::new(0, "near")
            .with_array_slot(small)
            .with_array_slot(DeviceSpec::xp1200())
            .with_array_slot(DeviceSpec::msa1500())
            .with_array_slot(DeviceSpec::msa1500())
            .with_tape_library(DeviceSpec::tape_library_high())
            .with_compute(8);
        let mut env = slot_set_env(spread_workloads(6, 11), 2, 2, &[(0, 1)]);
        let mut sites = env.topology.sites().to_vec();
        sites[0] = site;
        env.topology = Arc::new(Topology::new(sites, env.topology.routes().to_vec()));

        let first = |slot| first_of_its_spec(&env, ArrayRef { site: SiteId(0), slot });
        assert!(first(0) && first(1) && first(2), "near-twins stay distinct");
        assert!(!first(3), "the exact MSA1500 twin is skipped");
        assert_matches_reference(&env, "near-twin site");
    }

    #[test]
    fn a_spec_unequal_to_itself_is_its_own_class() {
        let mut odd = DeviceSpec::msa1500();
        odd.fixed_cost = Dollars::INFINITE * 0.0; // NaN: equal to nothing
        let site = Site::new(0, "nan").with_array_slot(odd.clone()).with_array_slot(odd);
        let mut env = slot_set_env(WorkloadSet::scaled_paper_mix(1), 1, 1, &[]);
        env.topology = Arc::new(Topology::new(vec![site], Vec::new()));
        assert!(first_of_its_spec(&env, ArrayRef { site: SiteId(0), slot: 1 }));
    }
}
