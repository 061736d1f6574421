//! The fast-path analog of `occupancy_equivalence`: every hot-path
//! optimization in the fleet DES and the goodput placement functions
//! must be bit-identical to its naive reference, on every committed
//! spec.
//!
//! Two proofs:
//!
//! * **Engine equivalence**: a full `FleetSim` run on the optimized
//!   engine (calendar event queue, probe memo, lazy job stream) versus
//!   the reference engine (binary heap, memo-less reprobe, eager
//!   pre-draw) — the complete recorded [`FleetTrace`]s must be equal
//!   and every derived metric `to_bits`-identical, under randomized
//!   health/occupancy churn (hot job mix over high failure rates, so
//!   queueing, preemption, kills and probe churn all exercise).
//! * **Placement equivalence**: the closed-form placement count
//!   (`place_reconfigurable`) versus the submit-until-refused loop
//!   through the production fabric (`place_reconfigurable_naive`), over
//!   randomized health vectors, on the OCS plugboard and on switched
//!   islands — including a `v4-ib` fleet of 4094 chips whose last
//!   island holds 6, so the partial-island arithmetic is covered. The
//!   two run interleaved on one machine instance, so the naive path's
//!   inject/repair state restoration is exercised too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use tpu_sched::goodput::{place_reconfigurable, place_reconfigurable_naive, slice_geometry};
use tpu_sched::{FleetSim, PlannerModel};
use tpu_spec::{FabricKind, FleetSpec, MachineSpec};

fn committed_specs() -> Vec<(String, MachineSpec)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the committed spec corpus, found {paths:?}"
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .collect()
}

/// A churn-heavy profile: offered load high enough to queue and
/// preempt, failures frequent enough that the probe memo and the
/// health bitset see real traffic within a short horizon.
fn hot_profile() -> FleetSpec {
    FleetSpec {
        arrival_interval_s: 30.0,
        mean_duration_s: 200.0,
        mtbf_h: 4.0,
        mttr_h: 0.2,
        repair_slo_h: Some(1.0),
    }
}

/// Every fabric arm the spec supports.
fn arms(spec: &MachineSpec) -> Vec<FabricKind> {
    if spec.torus_dims == 0 {
        vec![FabricKind::Static, FabricKind::Switched]
    } else {
        vec![FabricKind::Static, FabricKind::Ocs]
    }
}

#[test]
fn optimized_engine_is_bit_identical_to_the_reference_on_every_spec() {
    for (name, spec) in committed_specs() {
        // Bigger machines churn more per second; keep debug-mode
        // runtime bounded the way occupancy_equivalence does.
        let (units, _, _) = spec.scheduling_units();
        let horizon = if units > 256 { 4_000.0 } else { 12_000.0 };
        for seed in [1u64, 2, 3] {
            for fabric in arms(&spec) {
                let sim = FleetSim::for_spec(&spec, horizon, seed)
                    .with_profile(hot_profile())
                    .with_recording(true);
                let fast = sim.clone().run(fabric);
                let naive = sim.with_reference_engine(true).run(fabric);
                assert!(
                    fast == naive,
                    "{name} seed {seed} {fabric:?}: optimized engine diverged from the reference"
                );
                let (fm, nm) = (fast.metrics(), naive.metrics());
                for (label, a, b) in [
                    ("availability", fm.availability, nm.availability),
                    ("goodput", fm.goodput, nm.goodput),
                    ("fragmentation", fm.fragmentation, nm.fragmentation),
                    ("utilization", fm.utilization, nm.utilization),
                    ("mean_wait_s", fm.mean_wait_s, nm.mean_wait_s),
                ] {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name} seed {seed} {fabric:?}: {label} not bit-identical"
                    );
                }
            }
        }
    }
}

#[test]
fn jobless_runs_are_bit_identical_too() {
    // The pure failure/repair process (the fleet_equivalence regime):
    // no arrivals, so the queue carries host events only and the memo
    // sees the heaviest relative traffic.
    for (name, spec) in committed_specs() {
        let profile = FleetSpec {
            arrival_interval_s: f64::INFINITY,
            ..hot_profile()
        };
        let sim = FleetSim::for_spec(&spec, 20_000.0, 9)
            .with_profile(profile)
            .with_recording(true);
        let fabric = if spec.torus_dims == 0 {
            FabricKind::Switched
        } else {
            FabricKind::Ocs
        };
        let fast = sim.clone().run(fabric);
        let naive = sim.with_reference_engine(true).run(fabric);
        assert!(fast == naive, "{name}: jobless run diverged");
    }
}

#[test]
fn closed_form_placement_matches_the_naive_fabric_loop() {
    // 4094 chips in 8-chip islands: 512 islands, the last holds 6.
    let mut partial = MachineSpec::v4_ib_hybrid();
    partial.fleet_chips = 4094;
    let mut specs = committed_specs();
    specs.push(("v4-ib-4094".to_owned(), partial));
    for (name, spec) in specs {
        let model = PlannerModel::for_spec(&spec);
        let mut machine = model.reconfigurable_arm().clone();
        let units = model.blocks() as usize;
        let block = u64::from(model.chips_per_block());
        let mut rng = StdRng::seed_from_u64(2024);
        for slice_blocks in [1u64, 2, (model.blocks() as u64 / 4).max(1)] {
            let (_, shape, blocks_needed) =
                slice_geometry(&spec, model.chips_per_block(), slice_blocks * block);
            for trial in 0..20 {
                let p_up = 0.5 + 0.5 * rng.random::<f64>();
                let healthy: Vec<bool> = (0..units).map(|_| rng.random::<f64>() < p_up).collect();
                let naive =
                    place_reconfigurable_naive(&mut machine, &healthy, shape, blocks_needed);
                let fast = place_reconfigurable(&machine, &healthy, shape, blocks_needed);
                assert_eq!(
                    fast, naive,
                    "{name} slice {slice_blocks} blocks, trial {trial}: closed-form count diverged"
                );
            }
        }
    }
}
