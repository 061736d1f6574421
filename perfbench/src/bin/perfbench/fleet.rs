//! `fleet_month`: 30 simulated days of the v4 fleet under the hot job
//! profile (arrival 2.5 s, duration 17 s), single-threaded
//! `FleetSim::run` on the OCS arm and then the static arm, repeated
//! while the run lasts.

use crate::layers::{self, timed};
use crate::report::Outcome;
use crate::Ctx;
use perfbench::rng::derive;
use perfbench::stats;
use perfbench::trace::Tracer;
use std::sync::Arc;
use tpu_sched::equeue::EventQueue;
use tpu_sched::goodput::{place_reconfigurable, place_static, slice_geometry};
use tpu_sched::{FleetSim, FleetTrace, PlannerModel, TraceKind};
use tpu_spec::consts::{GIGA, KILO, MICRO};
use tpu_spec::{FabricKind, FleetSpec, MachineSpec};

const DAY_S: f64 = 86_400.0;
/// Simulated days per arm run.
const DAYS: f64 = 30.0;
/// Model constructions per batch; a run times a batch before the first
/// pair and after every pair, and `setup_s` is their median.
const SETUP_BUILDS: usize = 101;
/// Most capacity probes replayed per arm in the traced run.
const MAX_PROBES: usize = 20_000;
const ARMS: [FabricKind; 2] = [FabricKind::Ocs, FabricKind::Static];

/// The hot job profile `perf_report`'s fleet row uses.
fn profile() -> FleetSpec {
    FleetSpec {
        arrival_interval_s: 2.5,
        mean_duration_s: 17.0,
        ..FleetSpec::reference()
    }
}

fn sim(model: &Arc<PlannerModel>, days: f64, seed: u64) -> FleetSim {
    FleetSim::for_model(Arc::clone(model), days * DAY_S, seed).with_profile(profile())
}

/// The trace counters, in report order.
const COUNTERS: [&str; 10] = [
    "sched.fleet.events",
    "sched.fleet.arrivals",
    "sched.fleet.placements",
    "sched.fleet.completions",
    "sched.fleet.preemptions",
    "sched.fleet.failure_kills",
    "sched.fleet.rejected",
    "sched.fleet.host_failures",
    "sched.fleet.host_repairs",
    "sched.fleet.probes",
];

fn counters(t: &FleetTrace) -> [u64; 10] {
    [
        t.events,
        t.arrivals,
        t.placements,
        t.completions,
        t.preemptions,
        t.failure_kills,
        t.rejected,
        t.host_failures,
        t.host_repairs,
        t.probes,
    ]
}

fn print_trace(arm: FabricKind, t: &FleetTrace) {
    let m = t.metrics();
    let c: Vec<String> = COUNTERS
        .iter()
        .zip(counters(t))
        .map(|(n, v)| format!("{}={v}", n.trim_start_matches("sched.fleet.")))
        .collect();
    println!("# {} counters: {}", arm.label(), c.join(" "));
    println!(
        "# {} metric bits: availability={:#018x} goodput={:#018x} fragmentation={:#018x} utilization={:#018x} reconfig_overhead={:#018x} mean_wait_s={:#018x}",
        arm.label(),
        m.availability.to_bits(),
        m.goodput.to_bits(),
        m.fragmentation.to_bits(),
        m.utilization.to_bits(),
        m.reconfig_overhead.to_bits(),
        m.mean_wait_s.to_bits(),
    );
}

fn load_v4(ctx: &Ctx) -> Result<MachineSpec, String> {
    let path = ctx.specs_dir.join("v4.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    MachineSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Times `SETUP_BUILDS` runs of `PlannerModel::for_spec` plus the first
/// build of both arms into `times`; returns the last model.
fn build(spec: &MachineSpec, times: &mut Vec<f64>) -> PlannerModel {
    let mut model = None;
    for _ in 0..SETUP_BUILDS {
        let (m, t) = timed(|| {
            let m = PlannerModel::for_spec(spec);
            m.static_arm();
            m.reconfigurable_arm();
            m
        });
        times.push(t);
        model = Some(m);
    }
    model.expect("SETUP_BUILDS > 0")
}

/// `setup_s`: the median build time, printed with its spread.
fn setup_s(times: &[f64]) -> f64 {
    let median = stats::median(times);
    println!(
        "# setup: PlannerModel::for_spec + both arm builds, median of {} = {median:.6} s (quartiles {:?})",
        times.len(),
        stats::quartiles(times)
    );
    median
}

/// A one-day prefix on the optimized engine equals the reference
/// engine's, on both arms.
fn prefix_check(model: &Arc<PlannerModel>, seed: u64) -> bool {
    ARMS.iter().all(|&arm| {
        let fast = sim(model, 1.0, seed).run(arm);
        let reference = sim(model, 1.0, seed).with_reference_engine(true).run(arm);
        let same = fast == reference;
        println!(
            "# one-day prefix, {} arm: optimized engine {} the reference engine ({} events)",
            arm.label(),
            if same { "matches" } else { "DIFFERS FROM" },
            fast.events
        );
        same
    })
}

pub fn month(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = load_v4(ctx)?;
    let seed = derive(ctx.seed, 3) % 1_000_000_007;
    let mut setup_times = Vec::new();
    let model = Arc::new(build(&spec, &mut setup_times));
    let mut out = Outcome::default();
    let prefix_ok = prefix_check(&model, seed);
    let mut attempted = 2;
    let mut failed = u64::from(!prefix_ok) * 2;
    let mut correct = prefix_ok;

    if ctx.trace {
        let ok = traced(ctx, &model, seed, &mut out);
        attempted += 4;
        failed += u64::from(!ok);
        correct &= ok;
    } else {
        // Whole OCS + static pairs while they fit in the run.
        let mut pair_s = Vec::new();
        let mut run_ms = Vec::new();
        let mut first: Option<Vec<FleetTrace>> = None;
        let t0 = std::time::Instant::now();
        loop {
            let mut traces = Vec::new();
            let mut pair = 0.0;
            for arm in ARMS {
                let (trace, t) = timed(|| sim(&model, DAYS, seed).run(arm));
                run_ms.push(t * KILO);
                pair += t;
                traces.push(trace);
            }
            attempted += 2;
            pair_s.push(pair);
            match &first {
                None => {
                    for (arm, t) in ARMS.iter().zip(&traces) {
                        print_trace(*arm, t);
                    }
                    first = Some(traces);
                }
                Some(f) => {
                    let same = f.iter().zip(&traces).filter(|(a, b)| a == b).count();
                    failed += (2 - same) as u64;
                    correct &= same == 2;
                }
            }
            // More set-up samples between pairs, so `setup_s` samples
            // the host across the whole run.
            build(&spec, &mut setup_times);
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed + stats::median(&pair_s) > ctx.seconds {
                break;
            }
        }
        let days_per_s: Vec<f64> = pair_s.iter().map(|t| 2.0 * DAYS / t).collect();
        let throughput = stats::median(&days_per_s);
        // The two arms' run times form two clusters, so the median run is
        // taken per pair (the pair's mean) rather than over all runs.
        let pair_mean_ms: Vec<f64> = pair_s.iter().map(|t| t * KILO / 2.0).collect();
        let sorted = stats::sorted(run_ms);
        let (p50, slowest) = (
            stats::median(&pair_mean_ms),
            *sorted.last().expect("one run"),
        );
        println!(
            "# {} pairs of 30-day runs: {throughput:.4} simulated days/s (median), mean arm run {p50:.1} ms (median over pairs), slowest {slowest:.1} ms of {}",
            pair_s.len(),
            sorted.len()
        );
        out.set("throughput", throughput);
        out.set("p50_ms", p50);
        out.set("p99_ms", slowest);
    }
    out.set("setup_s", setup_s(&setup_times));
    out.attempted = attempted;
    out.failed = failed;
    out.correct = correct && failed == 0;
    Ok(out)
}

/// The traced run: each arm untraced and then with event recording,
/// the counters, and replays of the recorded log through the event
/// queue and the capacity-probe functions.
fn traced(ctx: &Ctx, model: &Arc<PlannerModel>, seed: u64, out: &mut Outcome) -> bool {
    let mut tr = Tracer::new();
    let mut ok = true;
    let questions: Vec<layers::Question> = ARMS
        .iter()
        .map(|&fabric| layers::Question {
            spec: model.spec().clone(),
            spec_hash: model.spec_hash(),
            query: tpu_serve::WhatIfQuery {
                availability: profile().steady_availability(),
                slice_chips: u64::from((model.blocks() / 4).max(1))
                    * u64::from(model.chips_per_block()),
                fabric,
                trials: 200,
                seed,
            },
        })
        .collect();
    // The probe replays below overwrite the placement timings with the
    // fleet's own block-health states.
    layers::goodput_probes(out, &mut tr, &questions, derive(ctx.seed, 5));
    let (mut plain_s, mut recorded_s, mut events) = (0.0, 0.0, 0u64);
    let mut totals = [0u64; 10];
    let mut probe_us = Vec::new();
    let mut queue = (0.0, 0u64);
    for arm in ARMS {
        let (plain, t_plain) = timed(|| sim(model, DAYS, seed).run(arm));
        let span = tr.open(
            if arm == FabricKind::Ocs {
                "sched.fleet.run.ocs"
            } else {
                "sched.fleet.run.static"
            },
            None,
            None,
        );
        let recorded = sim(model, DAYS, seed).with_recording(true).run(arm);
        tr.close(span);
        let t_recorded = tr.spans()[span].micros() * MICRO;
        print_trace(arm, &plain);
        let same = counters(&plain) == counters(&recorded);
        ok &= same;
        if !same {
            eprintln!("recording changed the {} arm's counters", arm.label());
        }
        plain_s += t_plain;
        recorded_s += t_recorded;
        events += plain.events;
        for (total, v) in totals.iter_mut().zip(counters(&plain)) {
            *total += v;
        }
        let (us, count) = replay_probes(&mut tr, model, arm, &recorded);
        println!(
            "# {} arm: {count} block-health transitions rebuilt from the log (engine probes: {})",
            arm.label(),
            recorded.probes
        );
        let label = if arm == FabricKind::Static {
            "sched.goodput.place_static_us"
        } else {
            "sched.goodput.place_reconfigurable_us"
        };
        out.set(label, stats::median(&us));
        probe_us.extend(us);
        let (secs, ops) = replay_queue(&mut tr, model, &recorded);
        queue.0 += secs;
        queue.1 += ops;
    }
    for (name, v) in COUNTERS.into_iter().zip(totals) {
        out.set(name, v as f64);
    }
    out.set("sched.fleet.events_per_s", events as f64 / plain_s);
    out.set("trace.overhead", recorded_s / plain_s - 1.0);
    out.set(
        "sched.fleet.probe_us",
        probe_us.iter().sum::<f64>() / probe_us.len().max(1) as f64,
    );
    out.set("sched.equeue.op_ns", queue.0 * GIGA / queue.1.max(1) as f64);
    if let Err(e) = ctx.write_trace(&tr) {
        eprintln!("{e}");
        ok = false;
    }
    ok
}

/// Rebuilds block health from the recorded host failures and repairs
/// and times the arm's placement function at every block-health
/// transition (the engine's memo is bypassed, so this bounds the probe
/// cost from above). Returns per-call µs and the transition count.
fn replay_probes(
    tr: &mut Tracer,
    model: &PlannerModel,
    arm: FabricKind,
    trace: &FleetTrace,
) -> (Vec<f64>, usize) {
    let hosts_per_block = model.hosts_per_block();
    let blocks = model.blocks() as usize;
    let mut first_seen = vec![None; trace.total_hosts as usize];
    for e in &trace.log {
        match e.kind {
            TraceKind::HostFailure { host } => {
                first_seen[host as usize].get_or_insert(false);
            }
            TraceKind::HostRepair { host } => {
                first_seen[host as usize].get_or_insert(true);
            }
            _ => {}
        }
    }
    // A host whose first logged event is a repair was down at t = 0.
    let mut down = vec![0u32; blocks];
    for (h, initially_down) in first_seen.iter().enumerate() {
        if *initially_down == Some(true) {
            down[h / hosts_per_block as usize] += 1;
        }
    }
    let mut transitions = Vec::new();
    for e in &trace.log {
        let (host, failed) = match e.kind {
            TraceKind::HostFailure { host } => (host, true),
            TraceKind::HostRepair { host } => (host, false),
            _ => continue,
        };
        let b = (host / hosts_per_block) as usize;
        let was_up = down[b] == 0;
        if failed {
            down[b] += 1;
        } else {
            down[b] -= 1;
        }
        if was_up != (down[b] == 0) {
            transitions.push(down.iter().map(|&d| d == 0).collect::<Vec<bool>>());
        }
    }
    let (slice_box, shape, needed) = slice_geometry(
        model.spec(),
        model.chips_per_block(),
        trace.probe_slice_chips,
    );
    let mut static_arm = model.static_arm().clone();
    let mut reconf_arm = model.reconfigurable_arm().clone();
    let stride = transitions.len().div_ceil(MAX_PROBES).max(1);
    let mut us = Vec::new();
    for healthy in transitions.iter().step_by(stride) {
        let span = tr.open("sched.fleet.probe", None, None);
        if arm == FabricKind::Static {
            std::hint::black_box(place_static(&mut static_arm, healthy, slice_box, needed));
        } else {
            std::hint::black_box(place_reconfigurable(
                &mut reconf_arm,
                healthy,
                shape,
                needed,
            ));
        }
        tr.close(span);
        us.push(tr.spans()[span].micros());
    }
    (us, transitions.len())
}

/// Replays the recorded event times through a calendar queue sized as
/// the engine sizes it, holding about one pending event per host plus
/// running jobs. Returns (seconds, operations).
fn replay_queue(tr: &mut Tracer, model: &PlannerModel, trace: &FleetTrace) -> (f64, u64) {
    let times: Vec<f64> = trace
        .log
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::Arrival { .. }
                    | TraceKind::Completed { .. }
                    | TraceKind::HostFailure { .. }
                    | TraceKind::HostRepair { .. }
            )
        })
        .map(|e| e.t)
        .collect();
    let p = profile();
    let hosts = trace.total_hosts as f64;
    let width = 1.0 / (2.0 / p.arrival_interval_s + hosts * 2.0 / ((p.mtbf_h + p.mttr_h) * 3600.0));
    let depth = (model.total_hosts() as usize + 64).min(times.len());
    let mut q: EventQueue<u32> = EventQueue::calendar(width);
    let span = tr.open("sched.equeue.replay", None, None);
    let mut ops = 0u64;
    for (seq, &t) in times[..depth].iter().enumerate() {
        q.push((t.to_bits(), 0, seq as u64, 0));
        ops += 1;
    }
    for (seq, &t) in times.iter().enumerate().skip(depth) {
        std::hint::black_box(q.pop());
        q.push((t.to_bits(), 0, seq as u64, 0));
        ops += 2;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    tr.close(span);
    (tr.spans()[span].micros() * MICRO, ops)
}
