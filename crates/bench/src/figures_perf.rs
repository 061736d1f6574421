//! Regenerators for the performance figures (11–17).

use std::fmt::Write;
use tpu_chip::{ModelPoint, Roofline};
use tpu_spec::consts::{GIGA, KILO, MEGA};
use tpu_spec::ChipSpec;
use tpu_workloads::{
    mlperf, Dlrm0Evolution, MlperfBenchmark, MlperfSystem, ProductionSuite, ScalingCurve,
    ScalingTail,
};

/// Figure 11: weak-scaling of the eight production workloads.
pub fn fig11() -> String {
    let mut out = String::new();
    let suite = ProductionSuite::paper();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "x64", "x256", "x1024", "x3072", "eff@max"
    );
    for w in suite.workloads() {
        let curve = ScalingCurve::for_workload(w);
        let at = |chips: u64| {
            curve
                .points()
                .iter()
                .find(|p| p.0 == chips)
                .map(|p| format!("{:.1}", p.1))
                .unwrap_or_else(|| "--".into())
        };
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>9.0}%",
            w.name,
            at(64),
            at(256),
            at(1024),
            at(3072),
            curve.efficiency_at_max() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(relative to 16 chips; -- = beyond the workload's infrastructure cap)"
    );
    out
}

/// Figure 12: TPU v4 over TPU v3 speedups at equal slice sizes.
pub fn fig12() -> String {
    let mut out = String::new();
    let suite = ProductionSuite::paper();
    let paper: &[(&str, &str)] = &[
        ("CNN0", "1.5-2.0x"),
        ("CNN1", "1.5-2.0x"),
        ("RNN0", "1.5-2.0x"),
        ("RNN1", "3.3x"),
        ("BERT0", "1.5-2.0x"),
        ("BERT1", "1.5-2.0x"),
        ("DLRM0", "3.0-3.5x"),
        ("DLRM1", "2.8x"),
    ];
    let _ = writeln!(out, "{:<8} {:>10} {:>12}", "workload", "modelled", "paper");
    for (name, published) in paper {
        let w = suite.get(name).expect("workload exists"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let _ = writeln!(
            out,
            "{:<8} {:>9.2}x {:>12}",
            name,
            suite.v4_over_v3_speedup(w),
            published
        );
    }
    let _ = writeln!(
        out,
        "geomean: {:.2}x (paper: 2.1x)",
        suite.geomean_v4_over_v3_speedup()
    );
    out
}

/// Figure 13: CMEM ablation and performance/Watt.
pub fn fig13() -> String {
    let mut out = String::new();
    let suite = ProductionSuite::paper();
    let _ = writeln!(out, "{:<8} {:>12}", "workload", "CMEM gain");
    for w in suite.workloads() {
        let _ = writeln!(out, "{:<8} {:>11.2}x", w.name, suite.cmem_gain(w));
    }
    let _ = writeln!(
        out,
        "geomean CMEM gain: {:.2}x (paper: 1.2x overall, 2x RNN1)",
        suite.geomean_cmem_gain()
    );
    let _ = writeln!(
        out,
        "perf: {:.2}x, perf/Watt: {:.2}x over TPU v3 (paper: 2.1x / 2.7x)",
        suite.geomean_v4_over_v3_speedup(),
        suite.geomean_perf_per_watt_gain()
    );
    out
}

/// Figure 14: MLPerf 2.0 peak results relative to the A100.
pub fn fig14() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14}",
        "benchmark", "TPU v4", "A100", "IPU Bow"
    );
    for b in MlperfBenchmark::ALL {
        let cell = |sys: MlperfSystem| {
            mlperf::figure14_peak_relative(sys, b)
                .map(|r| format!("{r:.2}x ({})", sys.max_chips()))
                .unwrap_or_else(|| "--".into())
        };
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>14}",
            format!("{b:?}"),
            cell(MlperfSystem::TpuV4),
            cell(MlperfSystem::A100),
            cell(MlperfSystem::IpuBow)
        );
    }
    out
}

/// Figure 15: MLPerf BERT and ResNet scaling curves.
pub fn fig15() -> String {
    let mut out = String::new();
    for b in [MlperfBenchmark::Bert, MlperfBenchmark::ResNet] {
        let _ = writeln!(out, "{b:?} (speed relative to an 8-chip A100):");
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10}",
            "chips", "TPU v4", "A100", "IPU Bow"
        );
        for &chips in &[8u64, 16, 64, 256, 1024, tpu_spec::consts::V4_FLEET_CHIPS] {
            let cell = |sys: MlperfSystem| {
                sys.relative_speed(b, chips)
                    .map(|s| format!("{s:.1}"))
                    .unwrap_or_else(|| "--".into())
            };
            let _ = writeln!(
                out,
                "{chips:>8} {:>10} {:>10} {:>10}",
                cell(MlperfSystem::TpuV4),
                cell(MlperfSystem::A100),
                cell(MlperfSystem::IpuBow)
            );
        }
    }
    let _ = writeln!(
        out,
        "(anchors: v4 = 1.15x A100 BERT, 1.67x ResNet; 4.3x/4.5x IPU at 256)"
    );
    let _ = writeln!(
        out,
        "(large-scale tail derived from the latency-aware backend: fig15_tail)"
    );
    out
}

/// Figure 15's large-scale tail, derived from per-step collective times
/// through the latency-aware [`tpu_net::CollectiveBackend`] instead of
/// anchor interpolation, with fitted log-log exponents against the
/// published curves.
pub fn fig15_tail() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fixed-global-batch step = compute/p + collectives (DESIGN.md §7.3);"
    );
    let _ = writeln!(
        out,
        "speed relative to the 128-chip point; exponent fit over >=512 chips"
    );
    let _ = writeln!(
        out,
        "(collectives under the specs' auto ring/tree selection, DESIGN.md \u{a7}10;"
    );
    let _ = writeln!(out, " schedule_crossover prints the selection surface)\n");
    for benchmark in [
        MlperfBenchmark::Bert,
        MlperfBenchmark::ResNet,
        MlperfBenchmark::Dlrm,
    ] {
        for system in [MlperfSystem::TpuV4, MlperfSystem::A100] {
            let Some(tail) = ScalingTail::derive(system, benchmark) else {
                continue;
            };
            let _ = writeln!(out, "{benchmark:?} on {system:?}:");
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>14} {:>10}",
                "chips", "step (ms)", "collective %", "speed"
            );
            for p in tail.points() {
                let _ = writeln!(
                    out,
                    "{:>8} {:>12.3} {:>13.0}% {:>10.1}",
                    p.chips,
                    p.step_seconds * KILO,
                    100.0 * p.collective_seconds / p.step_seconds,
                    p.relative_speed
                );
            }
            let _ = writeln!(
                out,
                "  derived tail exponent: {:.2} (published Figure 15 line: {:.2})\n",
                tail.tail_exponent(),
                tail.published_exponent()
            );
        }
    }
    let _ = writeln!(
        out,
        "(DLRM's all-to-all hits the §7.9 fixed-overhead wall and flattens"
    );
    let _ = writeln!(
        out,
        " before BERT's all-reduce; the A100 NIC ring feels it hardest)"
    );
    out
}

/// Figure 16: rooflines with the model operational intensities.
pub fn fig16() -> String {
    let mut out = String::new();
    let rooflines = [
        Roofline::of_chip(&ChipSpec::tpu_v4()),
        Roofline::of_chip(&ChipSpec::tpu_v3()),
        Roofline::of_chip(&ChipSpec::a100()),
        Roofline::a100_at_clock(1243.0),
    ];
    let _ = writeln!(out, "rooflines (ridge = peak/bandwidth):");
    for r in &rooflines {
        let _ = writeln!(
            out,
            "  {:<24} peak {:>6.0} TFLOPS, {:>6.0} GB/s, ridge {:>6.0} F/B",
            r.name(),
            r.peak_tflops(),
            r.mem_gbps(),
            r.ridge_oi()
        );
    }
    let _ = writeln!(out, "\nattainable TFLOPS by model (OI in parentheses):");
    let _ = write!(out, "{:<16}", "model");
    for r in &rooflines[..3] {
        let _ = write!(out, " {:>12}", r.name());
    }
    let _ = writeln!(out);
    for m in ModelPoint::figure16_models() {
        let _ = write!(out, "{:<16}", format!("{} ({:.0})", m.name, m.oi));
        for r in &rooflines[..3] {
            let _ = write!(out, " {:>12.0}", r.attainable_tflops(m.oi));
        }
        let _ = writeln!(out);
    }
    out
}

/// Figure 17: DLRM0 growth, 43 versions over five years.
pub fn fig17() -> String {
    let mut out = String::new();
    let e = Dlrm0Evolution::paper();
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>14} {:>16}",
        "version", "year", "weights (MB)", "embeddings (GB)"
    );
    let sampled: Vec<_> = e
        .versions()
        .iter()
        .filter(|v| v.index % 6 == 0 || v.index == Dlrm0Evolution::VERSIONS - 1)
        .collect();
    for v in sampled {
        let _ = writeln!(
            out,
            "{:>8} {:>8.1} {:>14.0} {:>16.1}",
            v.index,
            2017.0 + v.years_since_2017,
            v.weight_bytes / MEGA,
            v.embedding_bytes / GIGA
        );
    }
    let _ = writeln!(
        out,
        "growth: weights x{:.1}, embeddings x{:.1} over {} versions (paper: 4.2x / 3.8x / 43)",
        e.weight_growth(),
        e.embedding_growth(),
        e.versions().len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_caps_render_as_dashes() {
        let out = fig11();
        assert!(out.contains("--"), "DLRM cap should render: {out}");
    }

    #[test]
    fn fig12_has_geomean() {
        assert!(fig12().contains("geomean"));
    }

    #[test]
    fn fig14_ipu_missing_three() {
        let out = fig14();
        assert_eq!(out.matches("--").count(), 3, "{out}");
    }

    #[test]
    fn fig15_tail_derives_exponents_for_both_fabrics() {
        let out = fig15_tail();
        assert!(out.contains("derived tail exponent"), "{out}");
        assert!(out.contains("Bert on TpuV4"));
        assert!(out.contains("Dlrm on A100"));
        // The published lines are printed for comparison.
        assert!(out.contains("0.93") && out.contains("0.55"), "{out}");
    }

    #[test]
    fn fig16_ridges_present() {
        let out = fig16();
        assert!(out.contains("ridge"));
        assert!(out.contains("DLRM0"));
    }

    #[test]
    fn fig17_endpoints() {
        let out = fig17();
        assert!(out.contains("4.2"));
        assert!(out.contains("3.8"));
    }
}
