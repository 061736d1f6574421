//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one (tracing off).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput", "1/s"),
];

/// Per-layer metrics of the traced run. A workload that makes no call
/// into a layer reports 0 for it and names it on a `# not exercised`
/// line.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.transport_us", "us"),
    ("serve.conn_reopens", "count"),
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.api.handle_us.whatif", "us"),
    ("serve.api.handle_us.sweep", "us"),
    ("serve.api.handle_us.collective", "us"),
    ("serve.api.handle_us.list", "us"),
    ("serve.api.handle_us.put", "us"),
    ("serve.api.query_parse_us", "us"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.entries", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.store.put_us", "us"),
    ("spec.json.parse_us", "us"),
    ("spec.hash_us", "us"),
    ("sched.model.build_us", "us"),
    ("sched.model.arm_build_us", "us"),
    ("sched.goodput.trials_per_s.ocs", "1/s"),
    ("sched.goodput.trials_per_s.static", "1/s"),
    ("sched.goodput.trials_per_s.switched", "1/s"),
    ("sched.goodput.call_overhead_us", "us"),
    ("sched.goodput.place_static_us", "us"),
    ("sched.goodput.place_reconfigurable_us", "us"),
    ("net.collective_us", "us"),
    ("sched.fleet.events_per_s", "1/s"),
    ("sched.fleet.events", "count"),
    ("sched.fleet.arrivals", "count"),
    ("sched.fleet.placements", "count"),
    ("sched.fleet.completions", "count"),
    ("sched.fleet.preemptions", "count"),
    ("sched.fleet.failure_kills", "count"),
    ("sched.fleet.rejected", "count"),
    ("sched.fleet.host_failures", "count"),
    ("sched.fleet.host_repairs", "count"),
    ("sched.fleet.probes", "count"),
    ("sched.fleet.probe_us", "us"),
    ("sched.equeue.op_ns", "ns"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport error, unexpected status or
    /// wrong body).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints one `name = value unit` line per metric of `table` and
    /// returns the result line. Metrics the run did not produce are
    /// reported as 0 and listed on a `# not exercised` line.
    pub fn finish(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut missing = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or_else(|| {
                missing.push(name);
                0.0
            });
            println!("  {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            ));
        }
        if !missing.is_empty() {
            println!("# not exercised by this workload: {}", missing.join(", "));
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        );
        line
    }
}

/// A finite JSON number with all its digits.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_spec::json::{self, JsonValue};

    fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        let JsonValue::Arr(items) = json::get(v, key).expect("key present") else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                (
                    json::get_str(m, "name").expect("name").to_string(),
                    json::get_str(m, "unit").expect("unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let root = json::parse(&text).expect("valid JSON");
        let own = |t: &[(&str, &str)]| {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&root, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&root, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        o.set("p50_ms", 1.5);
        let line = o.finish(&END_TO_END);
        let v = json::parse(&line).expect("valid JSON");
        let metrics = json::get(&v, "metrics").expect("metrics");
        let setup = json::get(metrics, "setup_s").expect("setup_s");
        assert_eq!(json::get_num(setup, "value").ok(), Some(0.25));
        assert_eq!(json::get_str(setup, "unit").ok(), Some("s"));
        assert!(json::get(metrics, "throughput").is_ok());
    }
}
