//! What a run prints: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced one, and the operation counts, as one
//! JSON object on the last line of standard output.

use crate::model::{Op, Role};
use crate::stats;
use crate::trace::{self, Span};
use std::collections::BTreeMap;

/// Per-layer metrics that are not per role, before and after the role
/// metrics, with their units.
const PER_LAYER_HEAD: &[(&str, &str)] = &[
    ("core.serialize.from_bytes_ms", "ms"),
    ("kernels.plan.plan_ms", "ms"),
    ("kernels.plan.cache_hits", "count"),
    ("kernels.plan.cache_misses", "count"),
];
const PER_LAYER_TAIL: &[(&str, &str)] = &[
    ("serve.compute_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.batches", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.submit_us", "us"),
    ("bench.glue_ms", "ms"),
    ("bench.unaccounted_pct", "%"),
];

/// The metrics of every per-role call, `<op span>_<suffix>`, with units.
const PER_ROLE: &[(Op, &str, &str)] = &[
    (Op::Load, "ms", "ms"),
    (Op::Forward, "ms", "ms"),
    (Op::Forward, "gflops", "GFLOP/s"),
    (Op::ForwardVec, "ms", "ms"),
    (Op::ForwardVec, "gbps", "GB/s"),
];

/// Every per-layer metric, with its unit, in output order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let per_role = PER_ROLE.iter().flat_map(|&(op, suffix, unit)| {
        Role::ALL
            .iter()
            .map(move |role| (format!("{}_{suffix}", role.span(op)), unit))
    });
    PER_LAYER_HEAD
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(per_role)
        .chain(
            PER_LAYER_TAIL
                .iter()
                .map(|&(name, unit)| (name.to_string(), unit)),
        )
        .collect()
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tokens_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("resident_mb", "MiB"),
];

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    /// Every per-layer metric: name, unit, value.
    per_layer: Vec<(String, &'static str, f64)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            per_layer: per_layer_metrics()
                .into_iter()
                .map(|(name, unit)| (name, unit, 0.0))
                .collect(),
        }
    }

    /// Set an end-to-end metric; the name must be one of [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Set a per-layer metric; the name must be one of
    /// [`per_layer_metrics`].
    pub fn per_layer(&mut self, name: &str, value: f64) {
        let slot = self
            .per_layer
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = value;
    }

    /// The value of a per-layer metric; 0 until it is set.
    pub fn per_layer_value(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
            .2
    }

    /// The end-to-end metrics measured so far, as one comment line; a
    /// traced run prints it too, which is how the tracing overhead is read.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = END_TO_END
            .iter()
            .filter_map(|&(name, unit)| {
                self.end_to_end
                    .get(name)
                    .map(|v| format!("{name} {v:.4} {unit}"))
            })
            .collect();
        format!("# end to end: {}", parts.join(", "))
    }

    /// The final JSON line: end-to-end metrics when `traced` is false,
    /// per-layer metrics when it is true.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let rows: Vec<(&str, &str, Option<f64>)> = if traced {
            self.per_layer
                .iter()
                .map(|(name, unit, value)| (name.as_str(), *unit, Some(*value)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, unit, self.end_to_end.get(name).copied()))
                .collect()
        };
        let mut metrics = Vec::with_capacity(rows.len());
        for (name, unit, value) in rows {
            let value = value.ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Every digit of `v`, in a form JSON accepts.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Per-layer numbers read back from a trace.
pub struct TraceSummary<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl<'a> TraceSummary<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let self_ns = trace::self_times_ns(spans);
        Self {
            spans,
            by_name: trace::self_times_by_name(spans, &self_ns),
            self_ns,
        }
    }

    /// Every span's self time, in span order.
    pub fn self_ns(&self) -> &[u64] {
        &self.self_ns
    }

    /// Median self time of the spans named `name`, in ms (0 when none).
    pub fn median_ms(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(v) if !v.is_empty() => stats::median(&to_ms(v)),
            _ => 0.0,
        }
    }

    /// Total self time of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 * 1e-9)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// For each group holding a span named `root`, the summed self time of
    /// its spans named `name`; the median of those sums, in ms. Used for
    /// set-up layers, where a set-up is one group.
    pub fn median_group_total_ms(&self, root: &str, name: &str) -> f64 {
        let mut totals: BTreeMap<u64, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.group, 0))
            .collect();
        for (s, t) in self.spans.iter().zip(&self.self_ns) {
            if s.name == name {
                if let Some(total) = totals.get_mut(&s.group) {
                    *total += t;
                }
            }
        }
        let v: Vec<u64> = totals.into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&to_ms(&v))
        }
    }
}

fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&t| t as f64 * 1e-6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_reported_metrics() {
        let mut r = Report::new();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.end_to_end(name, 1.5 + i as f64);
        }
        r.attempted = 10;
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 4.5, \"unit\": \"s\"}"));
        assert!(!line.contains("kernels."));
        let traced = r.json(true).unwrap();
        assert!(traced.contains("\"serve.batches\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let body = json.split(&format!("\"{section}\"")).nth(1).unwrap();
        let body = body.split(']').next().unwrap();
        let field = |entry: &str, key: &str| {
            let rest = entry.split(&format!("\"{key}\": \"")).nth(1).unwrap();
            rest.split('"').next().unwrap().to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_run_prints() {
        let json = include_str!("../../BENCHMARK.json");
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(json, "end_to_end"), owned(END_TO_END));
        let per_layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(per_layer.len(), 46);
        assert_eq!(listed(json, "per_layer"), per_layer);
    }

    #[test]
    fn unmeasured_or_non_finite_metrics_are_refused() {
        let mut r = Report::new();
        assert!(r.json(false).is_err());
        for &(name, _) in END_TO_END {
            r.end_to_end(name, 1.0);
        }
        r.end_to_end("setup_s", f64::NAN);
        assert!(r.json(false).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn set_up_layers_sum_within_each_set_up() {
        let span = |name, group, parent, start_ns, end_ns| Span {
            name,
            group,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("bench.setup", 1, None, 0, 100),
            span("load", 1, Some(0), 0, 10),
            span("load", 1, Some(0), 10, 30),
            span("bench.setup", 2, None, 100, 200),
            span("load", 2, Some(3), 100, 140),
        ];
        let t = TraceSummary::new(&spans);
        // Set-up totals are 30 ns and 40 ns: median 35 ns.
        assert!((t.median_group_total_ms("bench.setup", "load") - 35e-6).abs() < 1e-12);
        assert_eq!(t.count("load"), 3);
        assert!((t.median_ms("load") - 20e-6).abs() < 1e-12);
    }
}
