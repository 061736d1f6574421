//! Integration: §2.6–2.7 topology reconfiguration through the whole
//! stack — fabric diffing, mirror-move accounting, and the end-to-end
//! payoff of retopologizing a running job.

use tpuv4::net::{AllToAll, LinkRate};
use tpuv4::ocs::{Fabric, ReconfigPlan, SliceSpec};
use tpuv4::topology::SliceShape;
use tpuv4::{Collective, JobSpec, MachineSpec, Supercomputer};

#[test]
fn twist_reconfiguration_is_cheap_and_pays_off() {
    // Materialize a regular 4x8x8 and its twisted retopologization on
    // the same racks, plan the mirror moves, and verify the collective
    // improvement justifies the millisecond-class cost.
    let shape = SliceShape::new(4, 8, 8).unwrap();
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let regular = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let blocks = regular.blocks().to_vec();
    fabric.release(&regular).unwrap();
    let twisted = fabric
        .allocate_on(&SliceSpec::twisted(shape).unwrap(), blocks)
        .unwrap();

    let plan = ReconfigPlan::between(&regular, &twisted);
    assert!(plan.mirror_moves() > 0);
    assert!(plan.kept() > 0, "untouched dimensions keep their circuits");
    // Milliseconds of switching...
    assert!(plan.wall_clock_s() < 0.5, "{}", plan.wall_clock_s());

    // ...buys a lasting all-to-all improvement.
    let rate = LinkRate::TPU_V4_ICI;
    let t_reg = AllToAll::analyze(regular.chip_graph(), 4096, rate).completion_time();
    let t_tw = AllToAll::analyze(twisted.chip_graph(), 4096, rate).completion_time();
    assert!(t_tw < t_reg * 0.85, "twisted {t_tw} vs regular {t_reg}");
}

#[test]
fn supercomputer_reconfigure_roundtrip() {
    let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let job = sc
        .submit(JobSpec::new("trainer", SliceSpec::regular(shape)))
        .unwrap();
    let before = sc
        .collective_time(
            job,
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        )
        .unwrap();

    // Twist in place, measure, untwist again.
    sc.reconfigure(job, SliceSpec::twisted(shape).unwrap())
        .unwrap();
    let twisted = sc
        .collective_time(
            job,
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        )
        .unwrap();
    assert!(twisted < before);

    sc.reconfigure(job, SliceSpec::regular(shape)).unwrap();
    let after = sc
        .collective_time(
            job,
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        )
        .unwrap();
    assert!(
        (after - before).abs() / before < 1e-9,
        "untwist restores the wiring"
    );
    sc.finish(job).unwrap();
}

#[test]
fn reconfiguration_does_not_disturb_neighbors() {
    // Other tenants' circuits are untouched while one job retopologizes
    // (the §2.6 security/isolation property at the optical layer).
    let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
    let bystander = sc
        .submit(JobSpec::new(
            "bystander",
            SliceSpec::regular(SliceShape::new(8, 8, 8).unwrap()),
        ))
        .unwrap();
    let bystander_blocks: Vec<_> = sc
        .job(bystander)
        .unwrap()
        .slice()
        .unwrap()
        .blocks()
        .to_vec();

    let shape = SliceShape::new(4, 4, 8).unwrap();
    let job = sc
        .submit(JobSpec::new("mover", SliceSpec::regular(shape)))
        .unwrap();
    sc.reconfigure(job, SliceSpec::twisted(shape).unwrap())
        .unwrap();

    let after_blocks: Vec<_> = sc
        .job(bystander)
        .unwrap()
        .slice()
        .unwrap()
        .blocks()
        .to_vec();
    assert_eq!(bystander_blocks, after_blocks);
    // The bystander's collectives still work.
    let t = sc
        .collective_time(bystander, Collective::AllReduce { bytes: 1 << 20 })
        .unwrap();
    assert!(t > 0.0);
}
