//! The layer probe: every per-layer metric a workload's traced run did
//! not measure on its own traffic, timed on a small seeded input set.
//!
//! Each workload exercises only some layers, but a traced run reports
//! every listed per-layer metric. The probe fills the rest by calling the
//! same public functions the workloads call, on fresh labs for both
//! validation Xeons and [`PER_MACHINE`] distinct scenarios each (the
//! sweep generator's mix of paper-shape and heterogeneous scenarios). A
//! group of metrics is probed only when one of them is still missing, so
//! a workload's own numbers always win.

use crate::gen::{sweep_batch, Class, Query, Rng, Space};
use crate::record::Report;
use crate::Ctx;
use coloc_machine::{presets, MachineSpec};
use coloc_ml::rng::derive_seed;
use coloc_ml::{Mlp, MlpConfig};
use coloc_model::{samples_to_dataset, FeatureSet, Lab, ModelRegistry, Sample, Scenario};
use coloc_placement::fleet::{key_add, ContentsKey};
use coloc_placement::{SpecEstimator, SpecOracle};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Probe scenarios per machine.
const PER_MACHINE: usize = 100;
/// Repetitions of the microsecond-scale calls.
const REPS: usize = 20;
/// Distinct (application, co-runners) pairs asked of the estimator and
/// the oracle.
const PAIRS: usize = 200;

/// Whether any of `names` is still missing from `report`.
fn missing(report: &Report, names: &[&str]) -> bool {
    names.iter().any(|n| !report.has(n))
}

/// Report `value` under `name` unless the workload already did.
fn fill_one(report: &mut Report, name: &str, value: f64, unit: &'static str) {
    if !report.has(name) {
        report.metric(name, value, unit);
    }
}

/// Mean nanoseconds per call of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The probe's inputs: per machine a fresh lab, its scenarios and their
/// collected samples.
struct Inputs {
    specs: Vec<MachineSpec>,
    labs: Vec<Lab>,
    scenarios: Vec<Vec<Scenario>>,
    samples: Vec<Vec<Sample>>,
    lab_seed: u64,
    baselines_s: f64,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let specs = vec![presets::xeon_e5649(), presets::xeon_e5_2697v2()];
        let spaces: Vec<Space> = specs.iter().map(Space::for_machine).collect();
        let scenarios = sweep_batch(derive_seed(seed, 0x9b1), 0, &spaces, PER_MACHINE);
        let lab_seed = derive_seed(seed, 0x9b0);
        let mut labs = Vec::new();
        let mut baselines_s = 0.0;
        for spec in &specs {
            let lab = Lab::new(spec.clone(), coloc_workloads::standard(), lab_seed)
                .map_err(|e| e.to_string())?
                .with_threads(1);
            let t = Instant::now();
            lab.baselines();
            baselines_s += t.elapsed().as_secs_f64();
            labs.push(lab);
        }
        let samples = labs
            .iter()
            .zip(&scenarios)
            .map(|(lab, sc)| lab.collect_scenarios(sc).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Inputs {
            baselines_s: baselines_s / specs.len() as f64,
            specs,
            labs,
            scenarios,
            samples,
            lab_seed,
        })
    }

    /// Every (lab, scenario) pair.
    fn pairs(&self) -> impl Iterator<Item = (&Lab, &Scenario)> {
        self.labs
            .iter()
            .zip(&self.scenarios)
            .flat_map(|(lab, sc)| sc.iter().map(move |s| (lab, s)))
    }

    fn count(&self) -> usize {
        self.scenarios.iter().map(Vec::len).sum()
    }
}

/// Probe every per-layer metric `report` does not hold yet.
pub fn fill(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let seed = derive_seed(ctx.seed, 0x9b);
    let t = Instant::now();
    let before = report.metrics.len();
    let inputs = Inputs::new(seed)?;
    report.attempt(inputs.count() as u64);
    fill_one(report, "core.baselines_s", inputs.baselines_s, "s");
    engine(report, &inputs)?;
    if missing(report, &["machine.stage.pstate.ns"]) {
        crate::sweep::stage_pass(report, &inputs.specs, &inputs.labs, &inputs.scenarios)?;
    }
    if missing(report, &["machine.cache.probe_ns"]) {
        crate::sweep::probe_cache(report, &inputs.labs, &inputs.scenarios, &inputs.samples);
    }
    if missing(report, &["ml.pool.speedup", "ml.pool.busy_ratio"]) {
        crate::sweep::pool_pass(report, &inputs.specs, &inputs.scenarios, inputs.lab_seed)?;
    }
    model(report, &inputs)?;
    network(report, &inputs, seed)?;
    protocol(report, &inputs);
    placement(report, &inputs, seed)?;
    report.param("probe_metrics", report.metrics.len() - before);
    report.param("probe_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// Lowering, digest, engine (cache bypassed) and featurize, each timed
/// on its own over every probe scenario.
fn engine(report: &mut Report, inputs: &Inputs) -> Result<(), String> {
    let names = [
        "core.lower_ns",
        "machine.ir.digest_ns",
        "machine.engine.ns_per_scen",
        "machine.segments",
        "machine.fp_iterations",
        "core.featurize_ns",
    ];
    if !missing(report, &names) {
        return Ok(());
    }
    let n = inputs.count();
    let irs = inputs
        .pairs()
        .map(|(lab, s)| lab.scenario_ir(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let pairs: Vec<(&Lab, &Scenario)> = inputs.pairs().collect();
    let lower = mean_ns(n, |i| {
        let _ = black_box(pairs[i].0.scenario_ir(black_box(pairs[i].1)));
    });
    let digest = mean_ns(n * REPS, |i| {
        black_box(irs[i % n].digest());
    });
    let (mut segments, mut fp_iterations) = (0u64, 0u64);
    let t = Instant::now();
    for ((lab, s), ir) in pairs.iter().zip(&irs) {
        let out = lab
            .machine()
            .run_scheduled(&ir.workload, ir.schedules.as_deref(), &ir.opts);
        report.attempt(1);
        match out {
            Ok(out) => {
                segments += out.segments as u64;
                fp_iterations += out.fp_iterations;
            }
            Err(e) => report.fail(format!("probe engine {s}: {e}")),
        }
    }
    let engine = t.elapsed().as_nanos() as f64 / n as f64;
    let featurize = mean_ns(n, |i| {
        let _ = black_box(pairs[i].0.featurize(black_box(pairs[i].1)));
    });
    fill_one(report, "core.lower_ns", lower, "ns");
    fill_one(report, "machine.ir.digest_ns", digest, "ns");
    fill_one(report, "machine.engine.ns_per_scen", engine, "ns");
    fill_one(
        report,
        "machine.segments",
        segments as f64 / n as f64,
        "1/scen",
    );
    fill_one(
        report,
        "machine.fp_iterations",
        fp_iterations as f64 / n as f64,
        "1/scen",
    );
    fill_one(report, "core.featurize_ns", featurize, "ns");
    Ok(())
}

/// A cold registry resolve of the placement estimator's linear request,
/// the least-squares fit behind it, predictions from the resolved model,
/// and dataset assembly from the probe samples.
fn model(report: &mut Report, inputs: &Inputs) -> Result<(), String> {
    let names = [
        "core.registry.resolve_s",
        "linalg.lstsq_ns",
        "core.predict_ns",
        "core.dataset_ns",
    ];
    if !missing(report, &names) {
        return Ok(());
    }
    let lab = &inputs.labs[0];
    let req = SpecEstimator::request(lab, 0);
    let t = Instant::now();
    let artifact = ModelRegistry::new()
        .resolve(lab, &req)
        .map_err(|e| e.to_string())?;
    let resolve_s = t.elapsed().as_secs_f64();
    let lstsq = crate::lstsq_ns(lab, &req.plan)?;
    let rows = inputs.scenarios[0]
        .iter()
        .map(|s| lab.featurize(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let predict = mean_ns(rows.len() * REPS, |i| {
        black_box(artifact.predictor.predict(black_box(&rows[i % rows.len()])));
    });
    let samples: Vec<Sample> = inputs.samples.concat();
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(
            samples_to_dataset(black_box(&samples), FeatureSet::F).map_err(|e| e.to_string())?,
        );
    }
    let dataset = t.elapsed().as_nanos() as f64 / REPS as f64;
    fill_one(report, "core.registry.resolve_s", resolve_s, "s");
    fill_one(report, "linalg.lstsq_ns", lstsq, "ns");
    fill_one(report, "core.predict_ns", predict, "ns");
    fill_one(report, "core.dataset_ns", dataset, "ns");
    Ok(())
}

/// One NN-F network fit on the first machine's probe samples, and its
/// predictions.
fn network(report: &mut Report, inputs: &Inputs, seed: u64) -> Result<(), String> {
    if !missing(report, &["ml.mlp.fit_s", "ml.mlp.predict_ns"]) {
        return Ok(());
    }
    let data = samples_to_dataset(&inputs.samples[0], FeatureSet::F).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let model = Mlp::fit(
        &data,
        &MlpConfig::for_features(FeatureSet::F.arity(), derive_seed(seed, 7)),
    );
    let fit_s = t.elapsed().as_secs_f64();
    report.attempt(1);
    let model = model.map_err(|e| format!("probe network fit: {e}"))?;
    let predict = mean_ns(data.len() * REPS, |i| {
        black_box(model.predict(black_box(data.sample(i % data.len()).0)));
    });
    fill_one(report, "ml.mlp.fit_s", fit_s, "s");
    fill_one(report, "ml.mlp.predict_ns", predict, "ns");
    Ok(())
}

/// Parsing the wire requests the serve workload would send for the
/// probe scenarios, and encoding an answer to each.
fn protocol(report: &mut Report, inputs: &Inputs) {
    if !missing(report, &["serve.proto.parse_ns", "serve.proto.encode_ns"]) {
        return;
    }
    let lines: Vec<String> = inputs
        .scenarios
        .iter()
        .enumerate()
        .flat_map(|(m, sc)| sc.iter().map(move |s| (m, s)))
        .enumerate()
        .map(|(i, (machine, s))| {
            let class = if i % 2 == 0 {
                Class::Predict
            } else {
                Class::Warm
            };
            crate::serve::request_line(
                i,
                &Query {
                    due_ns: 0,
                    class,
                    machine,
                    scenario: s.clone(),
                },
            )
        })
        .collect();
    let n = lines.len();
    let parse = mean_ns(n * REPS, |i| {
        let _ = black_box(coloc_serve::parse_request(black_box(&lines[i % n])));
    });
    let times: Vec<f64> = inputs
        .samples
        .concat()
        .iter()
        .map(|s| s.actual_time_s)
        .collect();
    let encode = mean_ns(n * REPS, |i| {
        black_box(coloc_serve::proto::ok_line(
            Some(&format!("q{i}")),
            times[i % times.len()],
            None,
            "cache",
            false,
        ));
    });
    fill_one(report, "serve.proto.parse_ns", parse, "ns");
    fill_one(report, "serve.proto.encode_ns", encode, "ns");
}

/// Distinct (application, co-runner contents) pairs on the first
/// machine, asked of a fresh placement estimator and oracle.
fn placement(report: &mut Report, inputs: &Inputs, seed: u64) -> Result<(), String> {
    let names = [
        "placement.estimator.slowdown_ns",
        "placement.oracle.time_ns",
    ];
    if !missing(report, &names) {
        return Ok(());
    }
    let lab = &inputs.labs[0];
    let mut estimator = SpecEstimator::train(lab, 0).map_err(|e| e.to_string())?;
    let mut oracle = SpecOracle::new(lab, 0);
    let apps = lab.suite().len();
    let cores = lab.machine().spec().cores;
    let mut rng = Rng::new(derive_seed(seed, 0x7e9));
    let mut seen: HashSet<(u8, ContentsKey)> = HashSet::new();
    while seen.len() < PAIRS {
        let app = rng.below(apps) as u8;
        let mut others: ContentsKey = 0;
        for _ in 0..1 + rng.below(cores - 1) {
            others = key_add(others, rng.below(apps) as u8);
        }
        seen.insert((app, others));
    }
    let (mut est_ns, mut ora_ns) = (0u128, 0u128);
    for &(app, others) in &seen {
        let t = Instant::now();
        let sd = estimator.slowdown(lab, app, others);
        est_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let time = oracle.time(lab, app, others);
        ora_ns += t.elapsed().as_nanos();
        report.attempt(2);
        if let Err(e) = sd.and(time) {
            report.fail(format!("probe placement pair ({app}, {others:#x}): {e}"));
        }
    }
    let n = seen.len() as f64;
    fill_one(
        report,
        "placement.estimator.slowdown_ns",
        est_ns as f64 / n,
        "ns",
    );
    fill_one(report, "placement.oracle.time_ns", ora_ns as f64 / n, "ns");
    Ok(())
}
