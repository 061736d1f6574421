//! Alpha-beta (latency + bandwidth) collective costs on tori.
//!
//! A pure-bandwidth model is exact for the large transfers of Figure 6
//! but underestimates small-message collectives, where per-hop latency
//! dominates — the same fixed-overhead regime that §7.9 blames for
//! MLPerf-DLRM's scaling wall. [`AlphaBeta`] builds the torus schedules
//! of [`crate::schedule`] with the alpha filled in; zeroing it
//! ([`CollectiveSchedule::bandwidth_only`]) recovers the bandwidth
//! asymptote, and the two converge as the payload grows. It applies the
//! spec's `ring`/`tree`/`auto` policy via
//! [`AlphaBeta::torus_all_reduce_schedule`] — on a torus the per-hop
//! alpha makes `auto` resolve to the ring at every payload, which is the
//! paper's §2.7 point that all-reduce "maps well" to tori.

use crate::schedule::{self, CollectiveSchedule, ScheduleAlgorithm};
use crate::units::LinkRate;
use serde::{Deserialize, Serialize};
use tpu_spec::CollectiveSpec;
use tpu_topology::SliceShape;

/// Latency/bandwidth parameters of one link hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBeta {
    /// Per-message, per-hop latency, seconds (DMA setup + wire + router).
    pub alpha_s: f64,
    /// Link rate (the beta term's reciprocal scale).
    pub rate: LinkRate,
}

impl AlphaBeta {
    /// An alpha-beta model from explicit parameters.
    pub fn new(alpha_s: f64, rate: LinkRate) -> AlphaBeta {
        AlphaBeta { alpha_s, rate }
    }

    /// The alpha-beta model at a machine spec's ICI link rate and the
    /// spec's declared per-hop latency (the DESIGN.md §7 reference when
    /// the spec omits the `latency` block).
    pub fn for_spec(spec: &tpu_spec::MachineSpec) -> AlphaBeta {
        AlphaBeta {
            alpha_s: spec.collective_latency().ici_hop_s,
            rate: LinkRate::for_spec(spec),
        }
    }

    /// Builds the latency-aware ring all-reduce schedule of `bytes` on a
    /// torus of `shape`.
    pub fn torus_ring_schedule(&self, shape: SliceShape, bytes: f64) -> CollectiveSchedule {
        schedule::torus_all_reduce(
            shape,
            bytes,
            self.rate,
            self.alpha_s,
            ScheduleAlgorithm::Ring,
        )
    }

    /// Builds the all-reduce schedule a spec's `collective` policy
    /// selects on this torus: ring and double-binary-tree candidates are
    /// emitted lazily and [`schedule::select_with`] picks per the policy.
    ///
    /// With per-hop alpha the tree candidate pays the same latency at a
    /// worse bandwidth term, so `auto` resolves to the ring on every
    /// torus — the selection only bites on switched fabrics, where alpha
    /// is per message (DESIGN.md §10). For the same reason, an `auto`
    /// `crossover_bytes` override is *ignored* here: it is an
    /// inter-island threshold, and honoring it on a torus would force
    /// the provably-slower tree below the threshold, breaking the
    /// documented auto-equals-ring guarantee. A forced `tree` policy
    /// remains an explicit (honestly worse) choice.
    pub fn torus_all_reduce_schedule(
        &self,
        shape: SliceShape,
        bytes: f64,
        selection: CollectiveSpec,
    ) -> (ScheduleAlgorithm, CollectiveSchedule) {
        let selection = CollectiveSpec {
            crossover_bytes: None,
            ..selection
        };
        schedule::select_with(
            selection,
            bytes,
            || self.torus_ring_schedule(shape, bytes),
            || {
                schedule::torus_all_reduce(
                    shape,
                    bytes,
                    self.rate,
                    self.alpha_s,
                    ScheduleAlgorithm::Tree,
                )
            },
        )
    }
}

/// Hop count of the longest shortest path on a torus of `shape` (each
/// dimension contributes ⌊k/2⌋ wraparound hops) — the pipeline depth a
/// bulk all-to-all pays in per-hop latency once, with §8-style
/// outstanding requests hiding everything behind the first arrival.
pub fn torus_diameter_hops(shape: SliceShape) -> u32 {
    shape.x() / 2 + shape.y() / 2 + shape.z() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_spec::{MachineSpec, SchedulePolicy};

    #[test]
    fn large_messages_converge_to_bandwidth_model() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let schedule = ab.torus_ring_schedule(shape, 10e9);
        let overhead = schedule.time() / schedule.bandwidth_only().time();
        assert!((1.0..1.01).contains(&overhead), "{overhead}");
    }

    #[test]
    fn auto_selection_resolves_to_the_ring_on_tori() {
        // Per-hop alpha: the tree candidate saves no latency and pays a
        // bandwidth penalty, so auto == ring at every payload — which
        // also keeps every pre-IR torus number bit-identical.
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        for bytes in [1e3, 1e6, 1e9] {
            let (algo, schedule) =
                ab.torus_all_reduce_schedule(shape, bytes, CollectiveSpec::reference());
            assert_eq!(algo, ScheduleAlgorithm::Ring, "at {bytes}");
            assert_eq!(schedule, ab.torus_ring_schedule(shape, bytes));
        }
        // A crossover override is an inter-island threshold — on a torus
        // it must not flip auto to the (provably slower) tree.
        let overridden = CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(f64::INFINITY),
        };
        let (algo, schedule) = ab.torus_all_reduce_schedule(shape, 1e6, overridden);
        assert_eq!(algo, ScheduleAlgorithm::Ring);
        assert_eq!(schedule, ab.torus_ring_schedule(shape, 1e6));
        // A forced tree is expressible (and honestly worse).
        let (algo, forced) =
            ab.torus_all_reduce_schedule(shape, 1e6, CollectiveSpec::forced(SchedulePolicy::Tree));
        assert_eq!(algo, ScheduleAlgorithm::Tree);
        assert!(forced.time() >= ab.torus_ring_schedule(shape, 1e6).time());
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let schedule = ab.torus_ring_schedule(shape, 1024.0);
        let with_latency = schedule.time();
        let bandwidth_only = schedule.bandwidth_only().time();
        assert!(
            with_latency > 10.0 * bandwidth_only,
            "{with_latency} vs {bandwidth_only}"
        );
    }

    #[test]
    fn diameters() {
        assert_eq!(torus_diameter_hops(SliceShape::new(8, 8, 8).unwrap()), 12);
        assert_eq!(torus_diameter_hops(SliceShape::new(2, 2, 2).unwrap()), 3);
        assert_eq!(torus_diameter_hops(SliceShape::new(1, 1, 1).unwrap()), 0);
    }
}
