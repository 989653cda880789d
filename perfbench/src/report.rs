//! The result line: `correct`, `attempted`, `failed` and `metrics`.

use crate::oracle::Verdict;
use std::fmt::Write as _;

/// Every per-layer metric, with its unit, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 37] = [
    ("workload.ingest_s", "s"),
    ("simulator.rounds", "count"),
    ("simulator.engine_self_s", "s"),
    ("simulator.heap_pushes", "count"),
    ("simulator.stale_pop_ratio", "ratio"),
    ("simulator.dirty_set_mean", "count"),
    ("core.compute_s", "s"),
    ("core.compute_us_p50", "us"),
    ("core.compute_us_p99", "us"),
    ("core.active_coflows_mean", "count"),
    ("core.rates_emitted", "count"),
    ("core.gang_admissions", "count"),
    ("core.gang_rejections", "count"),
    ("core.wc_backfills", "count"),
    ("core.schedule_unchanged_rounds", "count"),
    ("core.lcof_comparisons", "count"),
    ("core.order_rekeys", "count"),
    ("core.contention_deltas", "count"),
    ("core.queue_transitions", "count"),
    ("fabric.saturated_ports_mean", "count"),
    ("eventlog.append_s", "s"),
    ("eventlog.bytes_per_round", "B/round"),
    ("eventlog.snapshot_bytes", "B"),
    ("runtime.coord_obs_recv_s", "s"),
    ("runtime.recv_timeouts_per_round", "count"),
    ("runtime.coord_schedule_s", "s"),
    ("runtime.coord_broadcast_s", "s"),
    ("runtime.agent_apply_s", "s"),
    ("runtime.bytes_sent_per_round", "B/round"),
    ("runtime.bytes_recv_per_round", "B/round"),
    ("runtime.host_ready_events", "count"),
    ("runtime.proto_encode_ns", "ns"),
    ("runtime.proto_decode_ns", "ns"),
    ("quality.cct_p50_s", "s"),
    ("quality.cct_p90_s", "s"),
    ("quality.cct_bound_ratio", "ratio"),
    ("trace.probe_s", "s"),
];

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    /// False once any check outside the per-CoFlow tally fails.
    pub correct: bool,
    /// CoFlows replayed (per replay, summed).
    pub attempted: u64,
    /// CoFlows that did not complete or whose record failed a check.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Report {
    /// Marks the run incorrect and explains why on standard error.
    pub fn fatal(&mut self, why: String) {
        eprintln!("[perfbench] check failed: {why}");
        self.correct = false;
    }

    /// Adds one replay's per-CoFlow verdict.
    pub fn tally(&mut self, v: &Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed;
        for n in &v.notes {
            eprintln!("[perfbench] failed coflow: {n}");
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Completes a traced run's report: every per-layer metric the
    /// workload did not measure (its layer never ran) reads 0.
    ///
    /// # Panics
    /// Panics if the run reported a metric the list does not name.
    pub fn fill_absent_layers(&mut self) {
        for (name, ..) in &self.metrics {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not listed"
            );
        }
        for (name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|(n, ..)| n == name) {
                self.metrics.push((name.to_string(), 0.0, unit));
            }
        }
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let section = &doc[doc.find("\"per_layer\"").expect("a per_layer section")..];
        assert_eq!(section.matches("\"name\":").count(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let at = section
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            let rest = &section[at..];
            let unit_at = rest.find("\"unit\": ").expect("a unit") + "\"unit\": ".len();
            assert!(
                rest[unit_at..].starts_with(&format!("\"{unit}\"")),
                "{name}: unit"
            );
        }
    }

    #[test]
    fn absent_layers_read_zero_and_unknown_ones_panic() {
        let mut r = Report::default();
        r.metric("core.compute_s", 1.5, "s");
        r.fill_absent_layers();
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r.json().contains("\"core.compute_s\": {\"value\": 1.5,"));
        assert!(r.json().contains("\"eventlog.append_s\": {\"value\": 0.0,"));
        let bad = std::panic::catch_unwind(|| {
            let mut r = Report::default();
            r.metric("core.no_such_metric", 1.0, "s");
            r.fill_absent_layers();
        });
        assert!(bad.is_err());
    }

    #[test]
    fn renders_the_result_line() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a_s", 0.25, "s");
        r.metric("n", 2.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
