//! The request mixes of the two service workloads, generated from the
//! workload seed alone.
//!
//! - `serve_hot`: a fixed set of ~64 what-if questions with Zipf
//!   popularity (the working set fits the server's cache), plus
//!   collective quotes, spec listings and `PUT /specs/v4` flips.
//! - `serve_cold`: every request is new (a fresh Monte Carlo seed per
//!   request), three quarters single what-ifs at 200 or 2000 trials,
//!   one quarter 16–64 point sweeps, across the ocs, static and
//!   switched arms.

use crate::rng::{derive, Rng};
use tpu_spec::MachineSpec;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// `GET /specs/{name}/whatif`.
    WhatIf,
    /// `GET /specs/{name}/whatif/sweep`.
    Sweep,
    /// `GET /specs/{name}/collective`.
    Collective,
    /// `GET /specs`.
    List,
    /// `PUT /specs/v4`, flipping between two spec bodies.
    Put,
}

impl Endpoint {
    /// HTTP method.
    pub fn method(self) -> &'static str {
        match self {
            Endpoint::Put => "PUT",
            _ => "GET",
        }
    }
}

/// One request: endpoint, the spec it addresses, the request target
/// (path and query) and how many what-if grid points it asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What it asks for.
    pub endpoint: Endpoint,
    /// The spec it addresses (`None` for the listing).
    pub spec: Option<String>,
    /// Path and query.
    pub target: String,
    /// What-if grid points (1 for a single what-if, 0 for non-what-ifs).
    pub points: u32,
}

/// The scheduling geometry a mix needs from a spec.
#[derive(Debug, Clone)]
pub struct SpecInfo {
    /// Service name (file stem).
    pub name: String,
    /// Scheduling units (blocks or islands).
    pub units: u64,
    /// Chips per unit.
    pub chips_per_unit: u64,
}

impl SpecInfo {
    /// The geometry of a named spec.
    pub fn new(name: &str, spec: &MachineSpec) -> SpecInfo {
        let (units, chips_per_unit, _) = spec.scheduling_units();
        SpecInfo {
            name: name.to_string(),
            units,
            chips_per_unit: u64::from(chips_per_unit),
        }
    }
}

const AVAILABILITIES: [&str; 5] = ["0.99", "0.993", "0.995", "0.997", "0.999"];
const SLICE_UNITS: [u64; 9] = [1, 2, 4, 6, 8, 12, 16, 24, 32];

/// The smallest slice, in units, a mix asks about: at most 64 slices
/// fit the machine, so a trial's placement work stays bounded on the
/// switched machines (1054 a100 islands) as on the 64-block tori.
fn min_units(s: &SpecInfo) -> u64 {
    (s.units / 64).max(1)
}

/// The committed specs the mixes address.
const NAMES: [&str; 4] = ["v4", "v4-ib", "v3", "a100"];

/// The geometry of the specs in [`NAMES`], found once.
#[derive(Debug, Clone)]
pub struct MixSpecs(Vec<SpecInfo>);

impl MixSpecs {
    /// Picks the mixes' specs out of a spec directory's.
    ///
    /// # Errors
    ///
    /// Names a spec the mixes need that is missing.
    pub fn find(specs: &[SpecInfo]) -> Result<MixSpecs, String> {
        NAMES
            .iter()
            .map(|name| {
                specs
                    .iter()
                    .find(|s| s.name == *name)
                    .cloned()
                    .ok_or_else(|| format!("the request mixes need specs/{name}.json"))
            })
            .collect::<Result<_, _>>()
            .map(MixSpecs)
    }

    fn get(&self, name: &str) -> &SpecInfo {
        let i = NAMES.iter().position(|n| *n == name).unwrap_or_default();
        &self.0[i]
    }
}

fn whatif(s: &SpecInfo, query: String) -> Request {
    Request {
        endpoint: Endpoint::WhatIf,
        spec: Some(s.name.clone()),
        target: format!("/specs/{}/whatif?{query}", s.name),
        points: 1,
    }
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

/// Request shares of the hot mix (the remainder are PUTs).
const HOT_WHATIF: f64 = 0.90;
const HOT_COLLECTIVE: f64 = 0.05;
const HOT_LIST: f64 = 0.03;

/// The hot mix: distinct requests plus Zipf popularity over the
/// what-if questions.
#[derive(Debug, Clone)]
pub struct HotMix {
    /// Distinct requests: what-ifs first, then collective quotes, the
    /// listing, and the PUT.
    pub requests: Vec<Request>,
    whatifs: usize,
    collectives: usize,
    /// Cumulative Zipf weights by popularity rank.
    zipf_cdf: Vec<f64>,
    /// What-if index at each popularity rank.
    by_rank: Vec<usize>,
}

impl HotMix {
    /// The question set for a seed: 64 what-ifs at 16 or 32 trials
    /// (v4 ocs and static, v4-ib, v3 ocs and static, a100), eight
    /// collective quotes on v4, the listing and the v4 PUT.
    ///
    /// The shape of the set is the same for every seed — each group
    /// cycles through the same slice sizes and trial counts, and
    /// popularity interleaves the groups in a fixed order — so the cost
    /// of a refill does not depend on the seed; the seed picks the
    /// availabilities and Monte Carlo seeds.
    pub fn new(seed: u64, specs: &MixSpecs) -> HotMix {
        let mut rng = Rng::new(derive(seed, 1));
        let plan = [
            ("v4", "ocs", 12),
            ("v4", "static", 12),
            ("v4-ib", "switched", 10),
            ("v3", "ocs", 7),
            ("v3", "static", 7),
            ("a100", "switched", 16),
        ];
        let mut requests = Vec::new();
        let mut groups = Vec::new();
        for (name, fabric, count) in plan {
            let s = specs.get(name);
            let sizes: Vec<u64> = SLICE_UNITS
                .iter()
                .copied()
                .filter(|&u| u >= min_units(s) && u <= s.units)
                .collect();
            let offset = rng.below(AVAILABILITIES.len());
            groups.push((requests.len(), count));
            for j in 0..count {
                let query = format!(
                    "availability={}&slice_chips={}&fabric={fabric}&trials={}&seed={}",
                    AVAILABILITIES[(offset + j) % AVAILABILITIES.len()],
                    sizes[j % sizes.len()] * s.chips_per_unit,
                    [16, 32][j % 2],
                    rng.next_u64() % 1_000_000,
                );
                requests.push(whatif(s, query));
            }
        }
        let whatifs = requests.len();
        // Quotes stay cheap: all-to-all only within one block (over
        // 8x8x8 a single all-to-all quote takes ~25 ms).
        let v4 = specs.get("v4");
        let quotes = [
            ("all_reduce", "4x4x4"),
            ("all_reduce", "4x4x8"),
            ("all_reduce", "4x8x8"),
            ("all_reduce", "8x8x8"),
            ("all_to_all", "4x4x4"),
            ("all_to_all", "4x4x4"),
            ("all_to_all", "4x4x4"),
            ("all_to_all", "4x4x4"),
        ];
        for (k, (op, shape)) in quotes.into_iter().enumerate() {
            requests.push(Request {
                endpoint: Endpoint::Collective,
                spec: Some(v4.name.clone()),
                target: format!(
                    "/specs/{}/collective?op={op}&bytes={}&shape={shape}",
                    v4.name,
                    1u64 << (16 + 4 * (k % 4) + rng.below(4)),
                ),
                points: 0,
            });
        }
        let collectives = requests.len() - whatifs;
        requests.push(Request {
            endpoint: Endpoint::List,
            spec: None,
            target: "/specs".into(),
            points: 0,
        });
        requests.push(Request {
            endpoint: Endpoint::Put,
            spec: Some(v4.name.clone()),
            target: format!("/specs/{}", v4.name),
            points: 0,
        });

        let most = groups.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let by_rank: Vec<usize> = (0..most)
            .flat_map(|j| {
                groups
                    .iter()
                    .filter(move |&&(_, n)| j < n)
                    .map(move |&(first, _)| first + j)
            })
            .collect();
        let mut total = 0.0;
        let zipf_cdf = (1..=whatifs)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        HotMix {
            requests,
            whatifs,
            collectives,
            zipf_cdf,
            by_rank,
        }
    }

    /// Number of distinct what-if questions.
    pub fn whatifs(&self) -> usize {
        self.whatifs
    }

    /// `n` request indices (into [`HotMix::requests`]) for one phase of
    /// the run; `phase` names the phase so each gets its own stream.
    pub fn stream(&self, seed: u64, phase: u64, n: usize) -> Vec<usize> {
        let mut rng = Rng::new(derive(seed, 1000 + phase));
        let total = self.zipf_cdf[self.whatifs - 1];
        (0..n)
            .map(|_| {
                let u = rng.unit();
                if u < HOT_WHATIF {
                    let x = rng.unit() * total;
                    let rank = self.zipf_cdf.partition_point(|&c| c <= x);
                    self.by_rank[rank.min(self.whatifs - 1)]
                } else if u < HOT_WHATIF + HOT_COLLECTIVE {
                    self.whatifs + rng.below(self.collectives)
                } else if u < HOT_WHATIF + HOT_COLLECTIVE + HOT_LIST {
                    self.requests.len() - 2
                } else {
                    self.requests.len() - 1
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

/// Share of single what-ifs in the cold mix (the rest are sweeps).
const COLD_SINGLE: f64 = 0.75;

/// Request `index` of the cold stream for a seed. Every request carries
/// its own Monte Carlo seed, so no two requests share an answer.
pub fn cold_request(seed: u64, index: u64, specs: &MixSpecs) -> Request {
    let mut rng = Rng::new(derive(seed, 2_000_000 + index));
    let (fabric, names) = [
        ("ocs", ["v4", "v3"]),
        ("static", ["v4", "v3"]),
        ("switched", ["a100", "v4-ib"]),
    ][rng.below(3)];
    let s = specs.get(names[rng.below(2)]);
    let mc_seed = rng.next_u64() % 1_000_000_000;
    if rng.unit() < COLD_SINGLE {
        let trials = [200, 2000][rng.below(2)];
        let availability = 0.98 + 0.019 * rng.unit();
        let lo = min_units(s);
        let units = lo + rng.below((s.units / 2 + 1 - lo) as usize) as u64;
        return whatif(
            s,
            format!(
                "availability={availability:.4}&slice_chips={}&fabric={fabric}&trials={trials}&seed={mc_seed}",
                units * s.chips_per_unit
            ),
        );
    }
    let a = [2, 4][rng.below(2)];
    let b = 8 + rng.below(9);
    let mut avail: Vec<&str> = AVAILABILITIES.to_vec();
    let avail = distinct(&mut rng, &mut avail, a);
    let lo = min_units(s);
    let mut units: Vec<u64> = (lo..=s.units.min(lo + 63)).collect();
    let units = distinct(&mut rng, &mut units, b);
    let slices: Vec<String> = units
        .iter()
        .map(|u| (u * s.chips_per_unit).to_string())
        .collect();
    Request {
        endpoint: Endpoint::Sweep,
        spec: Some(s.name.clone()),
        target: format!(
            "/specs/{}/whatif/sweep?availability={}&slice_chips={}&fabric={fabric}&trials=200&seed={mc_seed}",
            s.name,
            avail.join(","),
            slices.join(",")
        ),
        points: (a * b) as u32,
    }
}

/// `k` distinct elements of `xs`, in ascending position order.
fn distinct<T: Copy + Ord>(rng: &mut Rng, xs: &mut [T], k: usize) -> Vec<T> {
    for i in 0..k {
        let j = i + rng.below(xs.len() - i);
        xs.swap(i, j);
    }
    let mut out = xs[..k].to_vec();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> MixSpecs {
        MixSpecs::find(&[
            SpecInfo::new("a100", &MachineSpec::a100()),
            SpecInfo::new("v4", &MachineSpec::v4()),
            SpecInfo::new("v4-ib", &MachineSpec::v4_ib_hybrid()),
            SpecInfo::new("v3", &MachineSpec::v3()),
        ])
        .expect("all four specs")
    }

    #[test]
    fn a_missing_spec_is_an_error() {
        let err = MixSpecs::find(&[SpecInfo::new("v4", &MachineSpec::v4())]).unwrap_err();
        assert!(err.contains("v4-ib"), "{err}");
    }

    #[test]
    fn mixes_are_identical_for_a_seed_and_differ_across_seeds() {
        let specs = specs();
        let a = HotMix::new(11, &specs);
        let b = HotMix::new(11, &specs);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stream(11, 3, 5000), b.stream(11, 3, 5000));
        assert_ne!(a.stream(11, 3, 5000), a.stream(11, 4, 5000));
        assert_ne!(a.requests, HotMix::new(12, &specs).requests);
        let cold = |seed| {
            (0..500)
                .map(|i| cold_request(seed, i, &specs))
                .collect::<Vec<_>>()
        };
        assert_eq!(cold(11), cold(11));
        assert_ne!(cold(11), cold(12));
    }

    #[test]
    fn hot_mix_has_64_distinct_questions_and_the_stated_shares() {
        let specs = specs();
        let mix = HotMix::new(5, &specs);
        assert_eq!(mix.whatifs(), 64);
        let mut targets: Vec<&str> = mix.requests.iter().map(|r| r.target.as_str()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), mix.requests.len());
        let stream = mix.stream(5, 0, 100_000);
        let share = |e: Endpoint| {
            stream
                .iter()
                .filter(|&&i| mix.requests[i].endpoint == e)
                .count() as f64
                / stream.len() as f64
        };
        assert!((share(Endpoint::WhatIf) - 0.90).abs() < 0.01);
        assert!((share(Endpoint::Collective) - 0.05).abs() < 0.005);
        assert!((share(Endpoint::List) - 0.03).abs() < 0.005);
        assert!((share(Endpoint::Put) - 0.02).abs() < 0.005);
        // Zipf: the most popular question is asked far more than the least.
        let count = |q: usize| stream.iter().filter(|&&i| i == q).count();
        assert!(count(mix.by_rank[0]) > 20 * count(mix.by_rank[63]).max(1));
    }

    #[test]
    fn cold_requests_are_unique_with_the_stated_shapes() {
        let specs = specs();
        let reqs: Vec<Request> = (0..2000).map(|i| cold_request(9, i, &specs)).collect();
        let mut targets: Vec<&str> = reqs.iter().map(|r| r.target.as_str()).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), reqs.len());
        let sweeps: Vec<&Request> = reqs
            .iter()
            .filter(|r| r.endpoint == Endpoint::Sweep)
            .collect();
        assert!((sweeps.len() as f64 / 2000.0 - 0.25).abs() < 0.03);
        assert!(sweeps.iter().all(|r| (16..=64).contains(&r.points)));
        for fabric in ["fabric=ocs", "fabric=static", "fabric=switched"] {
            assert!(reqs.iter().any(|r| r.target.contains(fabric)));
        }
    }
}
