//! What one benchmark run reports: named metrics with units, output checks,
//! operation counts, and context lines for a human reader. The last line of
//! standard output is one JSON object that a script comparing runs reads.

use std::fmt::Write as _;

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload reports all
/// of them from its tracing-off run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. Every workload reports all
/// of them from its traced run, measured at that workload's own shapes.
pub const LAYERS: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.partition_s", "s"),
    ("sparse.reform_s", "s"),
    ("sparse.compaction_ratio", "ratio"),
    ("sparse.subblock_fwd_ms", "ms"),
    ("sparse.subblock_gflops", "GFLOP/s"),
    ("model.attn_flash_fwd_ms", "ms"),
    ("model.attn_flash_fwd_gflops", "GFLOP/s"),
    ("model.attn_flash_fwd_mb", "MB"),
    ("model.attn_flash_bwd_ms", "ms"),
    ("model.attn_flash_bwd_gflops", "GFLOP/s"),
    ("model.attn_flash_bwd_mb", "MB"),
    ("model.attn_sparse_fwd_ms", "ms"),
    ("model.attn_sparse_fwd_gflops", "GFLOP/s"),
    ("model.attn_sparse_fwd_mb", "MB"),
    ("model.attn_sparse_bwd_ms", "ms"),
    ("model.attn_sparse_bwd_gflops", "GFLOP/s"),
    ("model.attn_sparse_bwd_mb", "MB"),
    ("model.forward_ms", "ms"),
    ("model.backward_ms", "ms"),
    ("model.attn_share", "%"),
    ("tensor.matmul_qkv_ms", "ms"),
    ("tensor.matmul_qkv_gflops", "GFLOP/s"),
    ("tensor.matmul_ffn_ms", "ms"),
    ("tensor.matmul_ffn_gflops", "GFLOP/s"),
    ("tensor.matmul_serve_ms", "ms"),
    ("tensor.matmul_serve_gflops", "GFLOP/s"),
    ("tensor.matmul_bt_ms", "ms"),
    ("tensor.matmul_at_ms", "ms"),
    ("tensor.softmax_ms", "ms"),
    ("tensor.layernorm_ms", "ms"),
    ("tensor.gelu_ms", "ms"),
    ("tensor.adam_step_ms", "ms"),
    ("tensor.alloc_bytes", "bytes"),
    ("tensor.arena_reuse_hits", "count"),
    ("runtime.forward_s", "s"),
    ("runtime.backward_s", "s"),
    ("runtime.other_s", "s"),
    ("runtime.optim_pct", "%"),
    ("runtime.eval_pct", "%"),
    ("runtime.preprocess_pct", "%"),
    ("runtime.sparse_steps", "count"),
    ("runtime.full_steps", "count"),
    ("runtime.full_step_time_share", "%"),
    ("runtime.step_ms_p50", "ms"),
    ("runtime.step_ms_tail", "ms"),
    ("runtime.beta_transitions", "count"),
    ("comm.all_reduce_calls_per_step", "count"),
    ("comm.all_reduce_bytes_per_step", "bytes"),
    ("comm.all_gather_calls_per_step", "count"),
    ("comm.all_gather_bytes_per_step", "bytes"),
    ("comm.all_reduce_ms", "ms"),
    ("comm.all_reduce_async_ms", "ms"),
    ("ckpt.snapshots", "count"),
    ("ckpt.snapshot_bytes", "bytes"),
    ("ckpt.save_ms", "ms"),
    ("data.datagen_s", "s"),
    ("data.shard_bytes_read", "bytes"),
    ("data.shards_loaded", "count"),
    ("data.prefetch_stall_ms", "ms"),
    ("data.train_stall_pct", "%"),
    ("data.io_retries", "count"),
    ("data.read_mb_per_s", "MB/s"),
    ("serve.exec_ms", "ms"),
    ("serve.pack_ms", "ms"),
    ("serve.avg_batch", "queries"),
    ("serve.batches", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.server_p99_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("host.triad_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
];

/// One run's findings.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    /// Operations attempted: training steps or queries.
    pub attempted: u64,
    /// Operations the program failed: steps of an epoch with a non-finite
    /// loss, or queries sent but never (or twice) answered.
    pub failed: u64,
}

impl Report {
    /// Record a metric by its registered name (see [`E2E`] and [`LAYERS`]).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not registered");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// A context line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Every check passed and every reported value is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// Print the human-readable report, then the result object as the last
    /// line. `names` selects which registered metrics the object carries;
    /// a missing one fails the run.
    pub fn print(&mut self, names: &[(&'static str, &'static str)]) {
        let missing: Vec<&str> = names
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.metrics.iter().any(|(m, _)| m == n))
            .collect();
        self.check(
            format!("every metric reported (missing: {missing:?})"),
            missing.is_empty(),
        );
        for line in &self.notes {
            println!("{line}");
        }
        for (name, unit) in names {
            if let Some(v) = self.value(name) {
                println!("  {name:<34} {v:>16.6} {unit}");
            }
        }
        for (what, ok) in &self.checks {
            println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        println!("{}", self.result_json(names));
    }

    /// Whether a metric has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn result_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in names {
            let Some(v) = self.value(name) else { continue };
            // JSON has no NaN or infinity; such a run is already incorrect.
            let v = if v.is_finite() { v } else { 0.0 };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The unit a registered metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .chain(LAYERS)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::json::Value;

    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        let items = spec
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list");
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registered_metrics_match_the_benchmark_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = torchgt_compat::json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&spec, "end_to_end"), owned(E2E));
        assert_eq!(listed(&spec, "per_layer"), owned(LAYERS));
    }

    #[test]
    fn result_line_carries_only_the_selected_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("setup_s", 1.25);
        r.metric("serve.exec_ms", 0.5);
        let json = r.result_json(&E2E[..1]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_non_finite_value_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("fine", true);
        assert!(r.correct());
        r.metric("peak_rss_mb", f64::NAN);
        assert!(!r.correct());
        let mut r = Report::default();
        r.check("broken", false);
        assert!(!r.correct());
    }
}
