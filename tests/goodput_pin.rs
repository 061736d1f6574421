//! Pins `GoodputSim::goodput` bit for bit on every shipped machine-spec
//! file, plus a switched fleet whose last island is partial (`v4-ib` at
//! 4094 chips). Every fabric label the spec accepts is asked at one,
//! four and a quarter of the machine's scheduling units, at 99% and
//! 99.9% host availability, with a trial count that leaves the last
//! Monte Carlo chunk partial. A refactor of the placement or trial path
//! must leave every line of the table unchanged.

use tpuv4::sched::GoodputSim;
use tpuv4::spec::FabricKind;
use tpuv4::MachineSpec;

/// Trials per query: small, because the static counterfactual on a
/// switched fleet packs a thousand islands per trial, and not a
/// multiple of the 32-trial chunk.
const TRIALS: u32 = 40;
const SEED: u64 = 7;

/// `spec fabric slice_chips availability bits`, one line per query,
/// specs in file-name order, the partial-island fleet last.
const PINNED: &str = "\
a100 Switched 4 0.99 3fefb246ec155fb0
a100 Switched 4 0.999 3feff964bf964bfb
a100 Switched 16 0.99 3fefa5106b41f7aa
a100 Switched 16 0.999 3fefec91bb0557f0
a100 Switched 1052 0.99 3fe7f457703667f6
a100 Switched 1052 0.999 3feef0f0f0f0f0f6
a100 Ocs 4 0.99 3fefb246ec155fb0
a100 Ocs 4 0.999 3feff964bf964bfb
a100 Ocs 16 0.99 3fefa5106b41f7aa
a100 Ocs 16 0.999 3fefec91bb0557f0
a100 Ocs 1052 0.99 3fe7f457703667f6
a100 Ocs 1052 0.999 3feef0f0f0f0f0f6
a100 Static 4 0.99 3fefb246ec155fb0
a100 Static 4 0.999 3feff964bf964bfb
a100 Static 16 0.99 3fef37798a0e2f3a
a100 Static 16 0.999 3fefe02232b6d7e6
a100 Static 1052 0.99 3fca599361d5725a
a100 Static 1052 0.999 3feb25fcb25fcb28
h100 Switched 64 0.99 3fed800000000000
h100 Switched 64 0.999 3fefb33333333333
h100 Switched 256 0.99 3fecd9999999999a
h100 Switched 256 0.999 3fef0ccccccccccd
h100 Switched 1024 0.99 3fe8000000000000
h100 Switched 1024 0.999 3fec333333333333
h100 Ocs 64 0.99 3fed800000000000
h100 Ocs 64 0.999 3fefb33333333333
h100 Ocs 256 0.99 3fecd9999999999a
h100 Ocs 256 0.999 3fef0ccccccccccd
h100 Ocs 1024 0.99 3fe8000000000000
h100 Ocs 1024 0.999 3fec333333333333
h100 Static 64 0.99 3fed800000000000
h100 Static 64 0.999 3fefb33333333333
h100 Static 256 0.99 3fe9666666666666
h100 Static 256 0.999 3feee66666666666
h100 Static 1024 0.99 3fdccccccccccccd
h100 Static 1024 0.999 3fec000000000000
ipu-bow Switched 4 0.99 3fefa00000000000
ipu-bow Switched 4 0.999 3feff66666666666
ipu-bow Switched 16 0.99 3feef33333333333
ipu-bow Switched 16 0.999 3fefd9999999999a
ipu-bow Switched 64 0.99 3febcccccccccccd
ipu-bow Switched 64 0.999 3fef666666666666
ipu-bow Ocs 4 0.99 3fefa00000000000
ipu-bow Ocs 4 0.999 3feff66666666666
ipu-bow Ocs 16 0.99 3feef33333333333
ipu-bow Ocs 16 0.999 3fefd9999999999a
ipu-bow Ocs 64 0.99 3febcccccccccccd
ipu-bow Ocs 64 0.999 3fef666666666666
ipu-bow Static 4 0.99 3fefa00000000000
ipu-bow Static 4 0.999 3feff66666666666
ipu-bow Static 16 0.99 3feea66666666666
ipu-bow Static 16 0.999 3fefd9999999999a
ipu-bow Static 64 0.99 3feb666666666666
ipu-bow Static 64 0.999 3fef666666666666
v2 Ocs 64 0.99 3fea000000000000
v2 Ocs 64 0.999 3fef666666666666
v2 Ocs 256 0.99 3fdccccccccccccd
v2 Ocs 256 0.999 3fed99999999999a
v2 Static 64 0.99 3fea000000000000
v2 Static 64 0.999 3fef666666666666
v2 Static 256 0.99 3fdccccccccccccd
v2 Static 256 0.999 3fed99999999999a
v3-ocs Ocs 64 0.99 3fed99999999999a
v3-ocs Ocs 64 0.999 3fefb33333333333
v3-ocs Ocs 256 0.99 3fea666666666666
v3-ocs Ocs 256 0.999 3feecccccccccccd
v3-ocs Static 64 0.99 3fed99999999999a
v3-ocs Static 64 0.999 3fefb33333333333
v3-ocs Static 256 0.99 3fe8666666666666
v3-ocs Static 256 0.999 3feecccccccccccd
v3 Ocs 64 0.99 3fed99999999999a
v3 Ocs 64 0.999 3fefb33333333333
v3 Ocs 256 0.99 3fea666666666666
v3 Ocs 256 0.999 3feecccccccccccd
v3 Static 64 0.99 3fed99999999999a
v3 Static 64 0.999 3fefb33333333333
v3 Static 256 0.99 3fe8666666666666
v3 Static 256 0.999 3feecccccccccccd
v4-half Ocs 64 0.99 3feb466666666666
v4-half Ocs 64 0.999 3fef6ccccccccccd
v4-half Ocs 256 0.99 3fe9cccccccccccd
v4-half Ocs 256 0.999 3fee4ccccccccccd
v4-half Ocs 512 0.99 3fe7cccccccccccd
v4-half Ocs 512 0.999 3fec99999999999a
v4-half Static 64 0.99 3feb466666666666
v4-half Static 64 0.999 3fef6ccccccccccd
v4-half Static 256 0.99 3fe44ccccccccccd
v4-half Static 256 0.999 3fedcccccccccccd
v4-half Static 512 0.99 3fda666666666666
v4-half Static 512 0.999 3febcccccccccccd
v4-ib Switched 8 0.99 3fef63999999999a
v4-ib Switched 8 0.999 3feff2cccccccccd
v4-ib Switched 32 0.99 3fef4ccccccccccd
v4-ib Switched 32 0.999 3fefde6666666666
v4-ib Switched 1024 0.99 3fe8000000000000
v4-ib Switched 1024 0.999 3febcccccccccccd
v4-ib Ocs 8 0.99 3fef63999999999a
v4-ib Ocs 8 0.999 3feff2cccccccccd
v4-ib Ocs 32 0.99 3fef4ccccccccccd
v4-ib Ocs 32 0.999 3fefde6666666666
v4-ib Ocs 1024 0.99 3fe8000000000000
v4-ib Ocs 1024 0.999 3febcccccccccccd
v4-ib Static 8 0.99 3fef63999999999a
v4-ib Static 8 0.999 3feff2cccccccccd
v4-ib Static 32 0.99 3fee080000000000
v4-ib Static 32 0.999 3fefc9999999999a
v4-ib Static 1024 0.99 3fd4cccccccccccd
v4-ib Static 1024 0.999 3feacccccccccccd
v4 Ocs 64 0.99 3feb49999999999a
v4 Ocs 64 0.999 3fef6ccccccccccd
v4 Ocs 256 0.99 3fea733333333333
v4 Ocs 256 0.999 3fee8ccccccccccd
v4 Ocs 1024 0.99 3fe8000000000000
v4 Ocs 1024 0.999 3fea666666666666
v4 Static 64 0.99 3feb49999999999a
v4 Static 64 0.999 3fef6ccccccccccd
v4 Static 256 0.99 3fe50ccccccccccd
v4 Static 256 0.999 3fede66666666666
v4 Static 1024 0.99 3fcd99999999999a
v4 Static 1024 0.999 3fe9333333333333
v4-ib-4094 Switched 8 0.99 3fef540000000000
v4-ib-4094 Switched 8 0.999 3fefe2cccccccccd
v4-ib-4094 Switched 32 0.99 3fef3e6666666666
v4-ib-4094 Switched 32 0.999 3fefbccccccccccd
v4-ib-4094 Switched 1024 0.99 3fe8000000000000
v4-ib-4094 Switched 1024 0.999 3fe8000000000000
v4-ib-4094 Ocs 8 0.99 3fef540000000000
v4-ib-4094 Ocs 8 0.999 3fefe2cccccccccd
v4-ib-4094 Ocs 32 0.99 3fef3e6666666666
v4-ib-4094 Ocs 32 0.999 3fefbccccccccccd
v4-ib-4094 Ocs 1024 0.99 3fe8000000000000
v4-ib-4094 Ocs 1024 0.999 3fe8000000000000
v4-ib-4094 Static 8 0.99 3fef63999999999a
v4-ib-4094 Static 8 0.999 3feff2cccccccccd
v4-ib-4094 Static 32 0.99 3fee080000000000
v4-ib-4094 Static 32 0.999 3fefc9999999999a
v4-ib-4094 Static 1024 0.99 3fd4cccccccccccd
v4-ib-4094 Static 1024 0.999 3feacccccccccccd
";

fn specs() -> Vec<(String, MachineSpec)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "specs/ holds {} files", files.len());
    let mut specs: Vec<_> = files
        .into_iter()
        .map(|file| {
            let name = file.file_stem().unwrap().to_str().unwrap().to_owned();
            let spec = MachineSpec::from_json(&std::fs::read_to_string(&file).unwrap()).unwrap();
            (name, spec)
        })
        .collect();
    // 4094 chips in 8-chip islands: 512 islands, the last holds 6.
    let mut partial = MachineSpec::v4_ib_hybrid();
    partial.fleet_chips = 4094;
    specs.push(("v4-ib-4094".to_owned(), partial));
    specs
}

fn answers() -> String {
    let mut out = String::new();
    for (name, spec) in specs() {
        let fabrics: &[FabricKind] = if spec.torus_dims == 0 {
            &[FabricKind::Switched, FabricKind::Ocs, FabricKind::Static]
        } else {
            &[FabricKind::Ocs, FabricKind::Static]
        };
        let (units, chips_per_unit, _) = spec.scheduling_units();
        let mut slice_units = vec![1, 4, (units / 4).max(1)];
        slice_units.sort_unstable();
        slice_units.dedup();
        let sim = GoodputSim::for_spec(&spec, TRIALS, SEED);
        for &fabric in fabrics {
            for &n in &slice_units {
                let chips = n * u64::from(chips_per_unit);
                for availability in [0.99, 0.999] {
                    let bits = sim.goodput(chips, availability, fabric).to_bits();
                    out.push_str(&format!(
                        "{name} {fabric:?} {chips} {availability} {bits:016x}\n"
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn goodput_bits_are_pinned_on_every_spec_file() {
    let actual = answers();
    assert!(
        actual == PINNED,
        "goodput drifted; the table it produced:\n{actual}"
    );
}
