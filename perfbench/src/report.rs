//! The result line, the human-readable metric table, and process memory.

use std::path::PathBuf;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and percentile notes for the human-readable table.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The end-to-end metrics every `--trace 0` run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fit_s_geomean", "s"),
    ("fit_s_total", "s"),
    ("ess_per_s_geomean", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ttfc_p50_ms", "ms"),
    ("p99_ms_high", "ms"),
    ("goodput_rps", "1/s"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stan_frontend.parse_us", "us"),
    ("stan_frontend.typecheck_us", "us"),
    ("stan2gprob.compile_us", "us"),
    ("gprob.bind_us", "us"),
    ("gprob.resolve_us", "us"),
    ("gprob.dprog_lower_us", "us"),
    ("gprob.jit_emit_us", "us"),
    ("gprob.dprog_compiled_frac", "frac"),
    ("gprob.jit_compiled_frac", "frac"),
    ("gprob.jit_code_bytes", "bytes"),
    ("gprob.grad_ns", "ns"),
    ("gprob.grad_lanes4_ns_per_state", "ns"),
    ("gprob.grad_tape_ns", "ns"),
    ("gprob.gq_us_per_draw", "us"),
    ("inference.nuts_grad_evals", "count"),
    ("inference.nuts_overhead_share", "frac"),
    ("inference.nuts_overhead_us_per_iter", "us"),
    ("inference.divergences", "count"),
    ("inference.advi_step_us", "us"),
    ("inference.svi_step_us", "us"),
    ("inference.importance_us_per_particle", "us"),
    ("deepstan.session_run_ms", "ms"),
    ("deepstan.chain_wall_imbalance", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p99", "ms"),
    ("serve.outside_run_ms_p50", "ms"),
    ("serve.compile_bind_share", "frac"),
    ("serve.response_bytes", "bytes"),
    ("serve.cache_program_hit_ratio", "frac"),
    ("serve.cache_model_hit_ratio", "frac"),
    ("serve.cache_evictions", "count"),
    ("serve.pool_rejected", "count"),
    ("serve.retries", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.backlog_grew", "bool"),
    ("obs.trace_overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: fits, served requests, and oracle checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why each failure counted, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 50 {
                self.failures.push(what());
            }
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Prints the table to stderr and the result object as the last line
    /// of stdout, with exactly the metrics of the mode's list in its
    /// order. A metric the workload does not exercise (NaN, or never
    /// pushed) is written as 0 and flagged in the table.
    pub fn print(&self, workload: &str, trace: bool) {
        eprintln!(
            "workload {workload}: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            eprintln!("  failure: {f}");
        }
        let mut fields = Vec::new();
        let list = if trace { PER_LAYER } else { END_TO_END };
        let failed_frac = Metric::new(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
        )
        .note(format!("{} of {} operations", self.failed, self.attempted));
        for &(name, unit) in list {
            let m = self
                .metrics
                .iter()
                .chain(std::iter::once(&failed_frac))
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, f64::NAN, unit));
            debug_assert_eq!(m.unit, unit, "{name}");
            let finite = m.value.is_finite();
            let value = if finite { m.value } else { 0.0 };
            eprintln!(
                "  {:<36} {:>16} {:<6} {}{}",
                m.name,
                format!("{value:.6}"),
                m.unit,
                m.note,
                if finite {
                    ""
                } else {
                    " (not exercised by this workload)"
                }
            );
            fields.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where traces and self-time tables go: `perfbench/out` in the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
