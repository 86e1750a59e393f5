//! The coloc benchmark: four workloads that each stress a different part
//! of the workspace, measured end to end (untraced) or per layer
//! (traced).
//!
//! ```text
//! colocbench --workload <sweep|fit|serve|place> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host and run record, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod fit;
mod gen;
mod place;
mod probe;
mod record;
mod serve;
mod stats;
mod sweep;
mod trace;

use record::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use trace::{LayerTime, Tracer};

/// The workloads, in the order the README describes them.
const WORKLOADS: [&str; 4] = ["sweep", "fit", "serve", "place"];

/// Where traced runs write their spans.
const OUT_DIR: &str = "colocbench-out";

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// Wall time for one measured pass. A traced run spends half of
    /// `--seconds` untraced and half traced, so the two can be compared.
    pub fn measure_budget(&self) -> Duration {
        let s = Duration::from_secs(self.seconds);
        if self.trace {
            s / 2
        } else {
            s
        }
    }
}

/// The layers a traced run's self time is split over: the workspace
/// crates the benchmark calls into, and `bench` for the benchmark's own
/// spans (roots, loops, the load generator).
pub const LAYERS: [&str; 6] = ["machine", "core", "ml", "serve", "placement", "bench"];

/// The layer a span belongs to: its name's first dot-separated part.
pub fn layer_of(span: &str) -> &str {
    span.split('.').next().unwrap_or(span)
}

/// Report each layer's self time as a share of `wall_ns`
/// (`self_pct.<layer>`, zero for a layer the workload does not call),
/// the share attributed to the crates (`trace.attributed_pct`), and,
/// for the run record, each span name's own share.
pub fn report_self_times(
    report: &mut Report,
    spans: &BTreeMap<&'static str, LayerTime>,
    wall_ns: u64,
) {
    let pct = |ns: u64| ns as f64 / wall_ns.max(1) as f64 * 100.0;
    for layer in LAYERS {
        let ns = spans
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .map(|(_, t)| t.self_ns)
            .sum();
        report.metric(format!("self_pct.{layer}"), pct(ns), "%");
    }
    let attributed = spans
        .iter()
        .filter(|(name, _)| layer_of(name) != "bench")
        .map(|(_, t)| t.self_ns)
        .sum();
    report.metric("trace.attributed_pct", pct(attributed), "%");
    for (name, t) in spans {
        report.metric(format!("span_self_pct.{name}"), pct(t.self_ns), "%");
    }
}

/// Mean time of `LinearRegression::fit` on the full-feature dataset of
/// `plan`'s samples, collected on `lab` (from its run cache when the plan
/// already ran there).
pub fn lstsq_ns(lab: &coloc_model::Lab, plan: &coloc_model::TrainingPlan) -> Result<f64, String> {
    let samples = lab.collect(plan).map_err(|e| e.to_string())?;
    let data = coloc_model::samples_to_dataset(&samples, coloc_model::FeatureSet::F)
        .map_err(|e| e.to_string())?;
    let reps = 50;
    let t = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            coloc_ml::LinearRegression::fit(std::hint::black_box(&data))
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(t.elapsed().as_nanos() as f64 / reps as f64)
}

/// Metric names a section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json` in the working directory lists; empty when there is
/// no such file.
fn listed_metrics(section: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Some(start) = text.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Keep in the result every metric the manifest lists for this kind of
/// run, move the rest (the workload's own extra numbers) to the run
/// record, and fail the run on a listed metric it did not report.
fn reconcile(report: &mut Report, listed: &[String]) {
    if listed.is_empty() {
        return;
    }
    let (kept, extra): (Vec<_>, Vec<_>) = std::mem::take(&mut report.metrics)
        .into_iter()
        .partition(|m| listed.contains(&m.name));
    report.metrics = kept;
    report.extras = extra;
    for name in listed {
        let reported = report.has(name);
        report.check(reported, || {
            format!("listed metric {name} was not reported")
        });
    }
    // The result lists metrics in manifest order.
    report
        .metrics
        .sort_by_key(|m| listed.iter().position(|n| *n == m.name));
}

fn usage() -> String {
    format!(
        "usage: colocbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload,
        Ctx {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let outcome = match workload.as_str() {
        "sweep" => sweep::run(&ctx, &mut report, &mut tracer),
        "fit" => fit::run(&ctx, &mut report, &mut tracer),
        "serve" => serve::run(&ctx, &mut report, &mut tracer),
        _ => place::run(&ctx, &mut report, &mut tracer),
    };
    if let Err(e) = outcome {
        eprintln!("colocbench {workload}: {e}");
        std::process::exit(1);
    }

    if ctx.trace {
        if let Err(e) = probe::fill(&ctx, &mut report) {
            eprintln!("colocbench {workload}: layer probe: {e}");
            std::process::exit(1);
        }
    }
    let listed = listed_metrics(if ctx.trace { "per_layer" } else { "end_to_end" });
    reconcile(&mut report, &listed);
    let record = record::run_record(&workload, ctx.seed, ctx.seconds, ctx.trace, &report);
    if ctx.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-{}.tsv", ctx.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    for m in report.extras.iter().chain(&report.metrics) {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{record}");
    println!("{}", record::result_line(&mut report));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("{name} not reported"))
    }

    #[test]
    fn self_times_cover_every_layer() {
        let t = |self_ns| LayerTime {
            count: 1,
            total_ns: self_ns,
            self_ns,
        };
        let spans = BTreeMap::from([
            ("machine.engine", t(50)),
            ("machine.ir.digest", t(10)),
            ("core.lower", t(30)),
            ("bench.sweep", t(10)),
        ]);
        let mut r = Report::default();
        report_self_times(&mut r, &spans, 100);
        assert_eq!(value(&r, "self_pct.machine"), 60.0);
        assert_eq!(value(&r, "self_pct.core"), 30.0);
        assert_eq!(value(&r, "self_pct.bench"), 10.0);
        for unused in ["ml", "serve", "placement"] {
            assert_eq!(value(&r, &format!("self_pct.{unused}")), 0.0);
        }
        assert_eq!(value(&r, "trace.attributed_pct"), 90.0);
        assert_eq!(value(&r, "span_self_pct.core.lower"), 30.0);
    }

    #[test]
    fn reconcile_keeps_listed_metrics_and_records_the_rest() {
        let listed: Vec<String> = ["setup_s", "ops_per_s"].map(String::from).to_vec();
        let mut r = Report::default();
        r.metric("ops_per_s", 10.0, "1/s");
        r.metric("test_mpe_pct", 1.0, "%");
        r.metric("setup_s", 0.5, "s");
        reconcile(&mut r, &listed);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "ops_per_s"]);
        assert_eq!(r.extras.len(), 1);
        assert_eq!(r.extras[0].name, "test_mpe_pct");
        assert_eq!((r.attempted, r.failed), (2, 0));
    }

    #[test]
    fn a_listed_metric_left_unreported_fails_the_run() {
        let listed: Vec<String> = ["setup_s", "ops_per_s"].map(String::from).to_vec();
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        reconcile(&mut r, &listed);
        assert_eq!(r.failed, 1);
    }
}
