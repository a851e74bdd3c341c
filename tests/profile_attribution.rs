//! The profiler's span tree over a recorded solve of the reference
//! environments: the fold must satisfy its sum invariant and attribute
//! at least 95% of root wall time to non-root frames, on the
//! four-sites(16) scalability setting and on a 32-app fleet.

use dsd_core::{Budget, DesignSolver};
use dsd_obs::{ProfileTree, Recorder};
use dsd_scenarios::environments::four_sites;
use dsd_scenarios::fleet::{fleet, FleetParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The budget is counted in greedy placements, and a greedy build runs
/// to completion once started, so fleet(64), whose single build takes
/// about 33 s in a debug build on a 2-vCPU VM, would not fit at any
/// budget; fleet(32) takes about 7 s there.
#[test]
fn profile_tree_verifies_and_attributes_the_reference_solves() {
    for (name, env) in
        [("four_sites(16)", four_sites(16)), ("fleet(32)", fleet(&FleetParams::new(32)))]
    {
        let recorder = Recorder::new();
        {
            let _g = recorder.install();
            let mut rng = ChaCha8Rng::seed_from_u64(2006);
            let _ = DesignSolver::new(&env).solve(Budget::iterations(20), &mut rng);
        }
        let tree = ProfileTree::from_events(&recorder.drain_events());
        tree.verify().unwrap_or_else(|e| panic!("{name}: sum invariant: {e}"));
        let attributed = tree.attributed_fraction();
        println!("{name}: {:.1}% attributed, {} nodes", attributed * 100.0, tree.rows().len());
        assert!(attributed >= 0.95, "{name}: attribution {attributed:.3} below the 95% floor");
    }
}
