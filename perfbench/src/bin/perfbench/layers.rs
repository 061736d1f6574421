//! Probes of the planner layers under the service, driven by a
//! workload's own what-if questions: model construction, lazy arm
//! construction, Monte Carlo trial throughput per arm, the fixed cost
//! of one `goodput` call, and the placement functions each trial runs.

use crate::report::Outcome;
use perfbench::rng::Rng;
use perfbench::stats;
use perfbench::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tpu_sched::goodput::{place_reconfigurable, place_static, slice_geometry};
use tpu_sched::{GoodputSim, PlannerModel};
use tpu_serve::WhatIfQuery;
use tpu_spec::consts::MICRO;
use tpu_spec::{FabricKind, MachineSpec};

/// Distinct questions probed per traced run.
pub const MAX_QUESTIONS: usize = 48;
/// Health draws each placement function is timed on, per question.
const PLACEMENTS: usize = 8;
/// Constructions timed per distinct spec.
const BUILDS: usize = 5;

/// A what-if question with the spec it was asked of.
#[derive(Debug, Clone)]
pub struct Question {
    /// The machine.
    pub spec: MachineSpec,
    /// Its canonical hash.
    pub spec_hash: u64,
    /// The parsed question.
    pub query: WhatIfQuery,
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times `PlannerModel::for_spec` for each distinct spec.
pub fn model_build_us(tr: &mut Tracer, specs: &[&MachineSpec]) -> f64 {
    let mut times = Vec::new();
    for spec in specs {
        for _ in 0..BUILDS {
            let id = tr.open("sched.model.for_spec", None, None);
            std::hint::black_box(PlannerModel::for_spec(spec));
            tr.close(id);
            times.push(tr.spans()[id].micros());
        }
    }
    stats::median(&times)
}

/// Probes the Monte Carlo layers with `questions` and records the
/// `sched.model.*` and `sched.goodput.*` metrics.
pub fn goodput_probes(out: &mut Outcome, tr: &mut Tracer, questions: &[Question], seed: u64) {
    if questions.is_empty() {
        return;
    }
    let mut distinct: Vec<&MachineSpec> = Vec::new();
    for q in questions {
        if !distinct.iter().any(|s| s.canonical_hash() == q.spec_hash) {
            distinct.push(&q.spec);
        }
    }
    out.set("sched.model.build_us", model_build_us(tr, &distinct));

    let mut rng = Rng::new(seed);
    let mut arm_build = Vec::new();
    let mut overhead = Vec::new();
    let mut place_static_us = Vec::new();
    let mut place_reconf_us = Vec::new();
    // (trials, seconds) per arm.
    let mut work = [(0.0, 0.0); 3];
    for (k, question) in questions.iter().enumerate() {
        let q = &question.query;
        let id = Some(k as u64);
        let model = Arc::new(PlannerModel::for_spec(&question.spec));
        let call = |tr: &mut Tracer, name: &'static str, trials: u32| {
            let sim = GoodputSim::for_model(Arc::clone(&model), trials, q.seed);
            let span = tr.open(name, None, id);
            let g = sim.goodput(q.slice_chips, q.availability, q.fabric);
            tr.close(span);
            (g, tr.spans()[span].micros())
        };
        let (first, first_us) = call(tr, "sched.goodput.first_call", q.trials);
        let (warm, warm_us) = call(tr, "sched.goodput.call", q.trials);
        assert_eq!(first.to_bits(), warm.to_bits(), "goodput is deterministic");
        arm_build.push(first_us - warm_us);
        let arm = match q.fabric {
            FabricKind::Ocs => 0,
            FabricKind::Static => 1,
            FabricKind::Switched => 2,
        };
        work[arm].0 += f64::from(q.trials);
        work[arm].1 += warm_us * MICRO;
        overhead.push(call(tr, "sched.goodput.one_trial", 1).1);

        let spec = model.spec();
        let (slice_box, shape, blocks) =
            slice_geometry(spec, model.chips_per_block(), q.slice_chips);
        let p_block = q.availability.powi(model.hosts_per_block() as i32);
        let mut static_arm = model.static_arm().clone();
        let mut reconf_arm = model.reconfigurable_arm().clone();
        for _ in 0..PLACEMENTS {
            let healthy: Vec<bool> = (0..model.blocks()).map(|_| rng.unit() < p_block).collect();
            if q.fabric == FabricKind::Static {
                let span = tr.open("sched.goodput.place_static", None, id);
                std::hint::black_box(place_static(&mut static_arm, &healthy, slice_box, blocks));
                tr.close(span);
                place_static_us.push(tr.spans()[span].micros());
            } else {
                let span = tr.open("sched.goodput.place_reconfigurable", None, id);
                std::hint::black_box(place_reconfigurable(
                    &mut reconf_arm,
                    &healthy,
                    shape,
                    blocks,
                ));
                tr.close(span);
                place_reconf_us.push(tr.spans()[span].micros());
            }
        }
    }
    out.set("sched.model.arm_build_us", stats::median(&arm_build));
    out.set("sched.goodput.call_overhead_us", stats::median(&overhead));
    for (name, (trials, secs)) in [
        "sched.goodput.trials_per_s.ocs",
        "sched.goodput.trials_per_s.static",
        "sched.goodput.trials_per_s.switched",
    ]
    .into_iter()
    .zip(work)
    {
        if secs > 0.0 {
            out.set(name, trials / secs);
        }
    }
    if !place_static_us.is_empty() {
        out.set(
            "sched.goodput.place_static_us",
            stats::median(&place_static_us),
        );
    }
    if !place_reconf_us.is_empty() {
        out.set(
            "sched.goodput.place_reconfigurable_us",
            stats::median(&place_reconf_us),
        );
    }
    println!(
        "# goodput probes: {} questions over {} specs",
        questions.len(),
        distinct.len()
    );
}
