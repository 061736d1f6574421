//! Pins `Supercomputer::collective_time` bit for bit on every shipped
//! machine-spec file: all-reduce at 1 KiB and 1 GiB and all-to-all at
//! 4096 B/pair, on every placeable regular 4x4x4, 4x4x8 and 8x8x8 slice,
//! plus a twisted 4x4x8 on OCS machines. Each slice runs alone on a
//! fresh machine. A refactor of the collective cost path must leave
//! every line of the table unchanged.

use tpuv4::spec::FabricKind;
use tpuv4::topology::SliceShape;
use tpuv4::{Collective, JobSpec, MachineSpec, SliceSpec, Supercomputer};

/// `spec shape wiring op bits`, one line per quote, specs in file-name
/// order.
const PINNED: &str = "\
a100 4x4x4 regular all_reduce:1024 3ee861724c27eab9
a100 4x4x4 regular all_reduce:1073741824 3f9a241bcc37f432
a100 4x4x4 regular all_to_all:4096 3eeb3ce120b09375
a100 4x4x8 regular all_reduce:1024 3eeb5110d5148de5
a100 4x4x8 regular all_reduce:1073741824 3f9ad9e70855989c
a100 4x4x8 regular all_to_all:4096 3efb5ce07d442898
a100 8x8x8 regular all_reduce:1024 3ef387c57c638d4a
a100 8x8x8 regular all_reduce:1073741824 3f9b81c01368d900
a100 8x8x8 regular all_to_all:4096 3f1b824bfc0036c9
h100 4x4x4 regular all_reduce:1024 3f2084023dd2e06b
h100 4x4x4 regular all_reduce:1073741824 3f73c1eec35bd0b2
h100 4x4x4 regular all_to_all:4096 3eba65df935b098e
h100 4x4x8 regular all_reduce:1024 3f20b301a5c1a2fd
h100 4x4x8 regular all_reduce:1073741824 3f7683168ecf7396
h100 4x4x8 regular all_to_all:4096 3eecf4af1e4e0f51
h100 8x8x8 regular all_reduce:1024 3f21393ee2274ac7
h100 8x8x8 regular all_reduce:1073741824 3f789e9906168792
h100 8x8x8 regular all_to_all:4096 3f1849a9c078ee8d
ipu-bow 4x4x4 regular all_reduce:1024 3ee862fe1f25c541
ipu-bow 4x4x4 regular all_reduce:1073741824 3f9d3bc1c7ed0657
ipu-bow 4x4x4 regular all_to_all:4096 3eeb3ce120b09375
ipu-bow 4x4x8 regular all_reduce:1024 3eeb529ca812686d
ipu-bow 4x4x8 regular all_reduce:1073741824 3f9df18d040aaac2
ipu-bow 4x4x8 regular all_to_all:4096 3efb5ce07d442898
v2 4x4x4 regular all_reduce:1024 3ef2e14804644404
v2 4x4x4 regular all_reduce:1073741824 3f7729d950210fe2
v2 4x4x4 regular all_to_all:4096 3ee0fb2018d3ecae
v2 4x4x8 regular all_reduce:1024 3efb44c6c358d052
v2 4x4x8 regular all_reduce:1073741824 3f7761266549e54a
v2 4x4x8 regular all_to_all:4096 3ef12f4890f1ebd0
v3-ocs 4x4x4 regular all_reduce:1024 3ef2e1206f4ae15c
v3-ocs 4x4x4 regular all_reduce:1073741824 3f74b087b9f69af8
v3-ocs 4x4x4 regular all_to_all:4096 3ee0827e455e1f8e
v3-ocs 4x4x8 regular all_reduce:1024 3efb449eddd38b5c
v3-ocs 4x4x8 regular all_reduce:1073741824 3f74e2ce10fa87d2
v3-ocs 4x4x8 regular all_to_all:4096 3ef03e04ea06518f
v3-ocs 8x8x8 regular all_reduce:1024 3f0605cc3a95dfaa
v3-ocs 8x8x8 regular all_reduce:1073741824 3f7512ff2d01eb2b
v3-ocs 8x8x8 regular all_to_all:4096 3f05ffaf0f9aeea8
v3-ocs 4x4x8 twisted all_reduce:1024 3efb449eddd38b5c
v3-ocs 4x4x8 twisted all_reduce:1073741824 3f74e2ce10fa87d2
v3-ocs 4x4x8 twisted all_to_all:4096 3ee9c6b4b8ca4594
v3 4x4x4 regular all_reduce:1024 3ef2e1206f4ae15c
v3 4x4x4 regular all_reduce:1073741824 3f74b087b9f69af8
v3 4x4x4 regular all_to_all:4096 3ee0827e455e1f8e
v3 4x4x8 regular all_reduce:1024 3efb449eddd38b5c
v3 4x4x8 regular all_reduce:1073741824 3f74e2ce10fa87d2
v3 4x4x8 regular all_to_all:4096 3ef03e04ea06518f
v3 8x8x8 regular all_reduce:1024 3f0605cc3a95dfaa
v3 8x8x8 regular all_reduce:1073741824 3f7512ff2d01eb2b
v3 8x8x8 regular all_to_all:4096 3f05ffaf0f9aeea7
v4-half 4x4x4 regular all_reduce:1024 3ef2e1a4604a2a34
v4-half 4x4x4 regular all_reduce:1073741824 3f7cef97ae8420ae
v4-half 4x4x4 regular all_to_all:4096 3ee21499b0e6cb50
v4-half 4x4x8 regular all_reduce:1024 3efb4523dae51be4
v4-half 4x4x8 regular all_reduce:1073741824 3f7d329f2a0314b2
v4-half 4x4x8 regular all_to_all:4096 3ef3623bc117a912
v4-half 8x8x8 regular all_reduce:1024 3f06060f1da582d1
v4-half 8x8x8 regular all_reduce:1073741824 3f7d6f612166bd68
v4-half 8x8x8 regular all_to_all:4096 3f0c481cbdbd9db0
v4-half 4x4x8 twisted all_reduce:1024 3efb4523dae51be4
v4-half 4x4x8 twisted all_reduce:1073741824 3f7d329f2a0314b2
v4-half 4x4x8 twisted all_to_all:4096 3eed60338f38cf30
v4-ib 4x4x4 regular all_reduce:1024 3ee56cc9ab424664
v4-ib 4x4x4 regular all_reduce:1073741824 3f900cfc3bacb975
v4-ib 4x4x4 regular all_to_all:4096 3ee9851323131799
v4-ib 4x4x8 regular all_reduce:1024 3ee85c68342ee990
v4-ib 4x4x8 regular all_reduce:1073741824 3f90bfd7d941713c
v4-ib 4x4x8 regular all_to_all:4096 3efa80f97e756aaa
v4-ib 8x8x8 regular all_reduce:1024 3ef1a2116185c863
v4-ib 8x8x8 regular all_reduce:1073741824 3f915c01b473e9da
v4-ib 8x8x8 regular all_to_all:4096 3f1b4b523c4c874e
v4 4x4x4 regular all_reduce:1024 3ef2e1a4604a2a34
v4 4x4x4 regular all_reduce:1073741824 3f7cef97ae8420ae
v4 4x4x4 regular all_to_all:4096 3ee21499b0e6cb50
v4 4x4x8 regular all_reduce:1024 3efb4523dae51be4
v4 4x4x8 regular all_reduce:1073741824 3f7d329f2a0314b2
v4 4x4x8 regular all_to_all:4096 3ef3623bc117a912
v4 8x8x8 regular all_reduce:1024 3f06060f1da582d1
v4 8x8x8 regular all_reduce:1073741824 3f7d6f612166bd68
v4 8x8x8 regular all_to_all:4096 3f0c481cbdbd9db0
v4 4x4x8 twisted all_reduce:1024 3efb4523dae51be4
v4 4x4x8 twisted all_reduce:1073741824 3f7d329f2a0314b2
v4 4x4x8 twisted all_to_all:4096 3eed60338f38cf30
";

fn quotes() -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "specs/ holds {} files", files.len());

    let ops = [
        ("all_reduce:1024", Collective::AllReduce { bytes: 1024 }),
        (
            "all_reduce:1073741824",
            Collective::AllReduce { bytes: 1 << 30 },
        ),
        (
            "all_to_all:4096",
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        ),
    ];
    let mut out = String::new();
    for file in files {
        let name = file.file_stem().unwrap().to_str().unwrap().to_owned();
        let spec = MachineSpec::from_json(&std::fs::read_to_string(&file).unwrap()).unwrap();
        let mut slices = Vec::new();
        for (x, y, z) in [(4, 4, 4), (4, 4, 8), (8, 8, 8)] {
            let shape = SliceShape::new(x, y, z).unwrap();
            slices.push(("regular", SliceSpec::regular(shape)));
        }
        if spec.fabric == FabricKind::Ocs {
            let shape = SliceShape::new(4, 4, 8).unwrap();
            slices.push(("twisted", SliceSpec::twisted(shape).unwrap()));
        }
        for (wiring, slice) in slices {
            let mut machine = Supercomputer::for_spec(&spec);
            let shape = slice.shape();
            let Ok(id) = machine.submit(JobSpec::new("pin", slice)) else {
                continue;
            };
            for (label, op) in ops {
                let bits = machine.collective_time(id, op).unwrap().to_bits();
                out.push_str(&format!("{name} {shape} {wiring} {label} {bits:016x}\n"));
            }
        }
    }
    out
}

#[test]
fn collective_time_bits_are_pinned_on_every_spec_file() {
    let actual = quotes();
    assert!(
        actual == PINNED,
        "collective_time drifted; the table it produced:\n{actual}"
    );
}
