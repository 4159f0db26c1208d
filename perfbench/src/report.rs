//! Metric names, units and the one-line JSON result.
//!
//! Every run reports every metric of its kind: the untraced run every
//! end-to-end metric, the traced run every per-layer metric. A
//! per-layer metric of a layer the workload does not use reads 0
//! (`README.md` lists which layer metric applies to which workload).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.stream_minst_per_s", "Minst/s"),
    ("workloads.capture_ms", "ms"),
    ("workloads.prepare_ms", "ms"),
    ("core.sync_ns_per_cycle", "ns"),
    ("core.mcd_ns_per_cycle", "ns"),
    ("core.sim_self_s", "s"),
    ("core.committed", "count"),
    ("core.domain_cycles.fe", "count"),
    ("core.domain_cycles.int", "count"),
    ("core.domain_cycles.fp", "count"),
    ("core.domain_cycles.ls", "count"),
    ("core.resident_cache_bytes", "B"),
    ("control.reconfigs", "count"),
    ("control.iq_resizes", "count"),
    ("cache.icache_accesses", "count"),
    ("cache.l1d_accesses", "count"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_fill_deficit", "count"),
    ("engine.simulated", "count"),
    ("engine.cache_hits", "count"),
    ("engine.pool_hits", "count"),
    ("engine.pool_builds", "count"),
    ("engine.memo_hits", "count"),
    ("engine.memo_stores", "count"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.speedup_vs_direct", "ratio"),
    ("engine.warm_pass_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.checkpoint_bytes", "B"),
    ("store.wal_bytes", "B"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("serve.status_rtt_us", "us"),
    ("serve.miss_sim_share", "ratio"),
    ("serve.simulated", "count"),
    ("serve.shutdown_ms", "ms"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.restart_s", "s"),
    ("serve.req_per_s", "1/s"),
    ("trace.sim_minst_per_s", "Minst/s"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (jobs or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, one description each.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    /// Records a check's result.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: every metric of the run's kind (`trace` selects
    /// the per-layer set), by name with its unit. A metric the workload
    /// did not set reads 0; a non-finite value is a failed check.
    pub fn to_line(&mut self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                self.errors
                    .push(format!("metric {name} is not finite ({v})"));
            }
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a listed metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0.0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.to_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,"));
        let mut t = Outcome::default();
        t.set("serve.p99_ms", f64::NAN);
        let line = t.to_line(true);
        assert!(!t.correct(), "a non-finite metric fails the run");
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
