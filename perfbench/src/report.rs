//! Result output: one `workload metric value unit` line per metric, a JSON
//! results file, and the one-line JSON summary that ends standard output.

use coarse_simcore::json::JsonValue;

use crate::workloads::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Op executions attempted.
    pub attempted: u64,
    /// Op executions that failed (all of them when the gate failed).
    pub failed: u64,
    /// The correctness gate's verdict.
    pub gate: Result<(), String>,
    /// Workload-specific detail for the results file.
    pub detail: JsonValue,
}

/// Prints the metric lines, writes `path`, and prints the summary line.
/// Returns whether every op was correct.
pub fn emit(outcomes: &[Outcome], path: &str) -> bool {
    let prefixed = outcomes.len() > 1;
    let mut metrics = JsonValue::object();
    let mut per_workload = JsonValue::object();
    let (mut attempted, mut failed) = (0, 0);
    let mut correct = true;
    for o in outcomes {
        if let Err(e) = &o.gate {
            eprintln!(
                "perfbench: {} correctness gate failed: {e}",
                o.workload.name()
            );
        }
        correct &= o.gate.is_ok() && o.failed == 0;
        attempted += o.attempted;
        failed += o.failed;
        let mut own = JsonValue::object();
        for m in &o.metrics {
            println!("{} {} {} {}", o.workload.name(), m.name, m.value, m.unit);
            let value = JsonValue::object()
                .with("value", JsonValue::num(m.value))
                .with("unit", JsonValue::str(m.unit));
            let key = if prefixed {
                format!("{}.{}", o.workload.name(), m.name)
            } else {
                m.name.clone()
            };
            metrics = metrics.with(&key, value.clone());
            own = own.with(&m.name, value);
        }
        per_workload = per_workload.with(
            o.workload.name(),
            JsonValue::object()
                .with("attempted", JsonValue::int(o.attempted))
                .with("failed", JsonValue::int(o.failed))
                .with(
                    "gate",
                    JsonValue::str(o.gate.as_ref().err().map_or("ok", String::as_str)),
                )
                .with("metrics", own)
                .with("detail", o.detail.clone()),
        );
    }
    let summary = JsonValue::object()
        .with("correct", JsonValue::Bool(correct))
        .with("attempted", JsonValue::int(attempted))
        .with("failed", JsonValue::int(failed))
        .with("metrics", metrics);
    let doc = JsonValue::object()
        .with("summary", summary.clone())
        .with("workloads", per_workload);
    if let Err(e) = std::fs::write(path, doc.render_pretty()) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    println!("{}", summary.render());
    correct
}
