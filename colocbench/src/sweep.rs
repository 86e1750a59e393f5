//! `sweep`: cold co-location sweeps on both validation Xeons.
//!
//! Every batch builds fresh labs (so neither the run cache nor the
//! machine's curve memo carries over) and collects distinct scenarios at
//! one thread. The engine does almost all of the work here.

use crate::gen::{sweep_batch, Space};
use crate::record::{nproc, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use coloc_conformance::{diff::outcomes_bit_identical, RefEngine};
use coloc_machine::{presets, Machine, MachineSpec, StageId, StageProfile};
use coloc_ml::rng::derive_seed;
use coloc_model::{Lab, Sample, Scenario};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct scenarios per machine in one batch.
const PER_MACHINE: usize = 500;
/// Scenarios per machine compared against the reference engine.
const REF_CHECKS: usize = 4;

/// One batch: per machine, its lab, scenarios and collected samples.
type Batch = (Vec<Lab>, Vec<Vec<Scenario>>, Vec<Vec<Sample>>);

fn specs() -> Vec<MachineSpec> {
    vec![presets::xeon_e5649(), presets::xeon_e5_2697v2()]
}

/// Fresh labs, one per machine, with baselines measured: the set-up a
/// sweep pays before its first scenario.
fn fresh_labs(specs: &[MachineSpec], seed: u64, threads: usize) -> Result<Vec<Lab>, String> {
    specs
        .iter()
        .map(|s| {
            let lab = Lab::new(s.clone(), coloc_workloads::standard(), seed)
                .map_err(|e| e.to_string())?
                .with_threads(threads);
            lab.baselines();
            Ok(lab)
        })
        .collect()
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let specs = specs();
    let spaces: Vec<Space> = specs.iter().map(Space::for_machine).collect();
    let lab_seed = derive_seed(ctx.seed, 1);
    report.param("machines", "e5649,e5_2697v2");
    report.param("scenarios_per_batch", PER_MACHINE * specs.len());
    report.param("paper_shape_share", crate::gen::SWEEP_PAPER_SHARE);
    report.param("threads", 1);
    report.param("op", "scenario collected");

    let budget = ctx.measure_budget();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    // The first batch's labs, scenarios and samples, kept for the checks.
    let mut first: Option<Batch> = None;
    let mut batch = 0u64;
    while batch < 3 || start.elapsed() < budget {
        let scenarios = sweep_batch(ctx.seed, batch, &spaces, PER_MACHINE);
        let t0 = Instant::now();
        let labs = fresh_labs(&specs, lab_seed, 1)?;
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let results: Vec<_> = labs
            .iter()
            .zip(&scenarios)
            .map(|(lab, sc)| lab.collect_scenarios(sc))
            .collect();
        let dt = t1.elapsed().as_secs_f64();
        let n: usize = scenarios.iter().map(Vec::len).sum();
        report.attempt(n as u64);
        let mut samples = Vec::new();
        for (r, sc) in results.into_iter().zip(&scenarios) {
            match r {
                Ok(s) => samples.push(s),
                Err(e) => report.fail_n(sc.len() as u64, format!("sweep batch {batch}: {e}")),
            }
        }
        rates.push(n as f64 / dt);
        for lab in &labs {
            let s = lab.sweep_stats();
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
        if first.is_none() && samples.len() == labs.len() {
            first = Some((labs, scenarios, samples));
        }
        batch += 1;
    }
    report.param("batches", batch);
    report.check(hits == 0, || {
        format!("{hits} run-cache hits in a sweep of distinct scenarios")
    });
    let (labs, scenarios, samples) = first.ok_or("no sweep batch succeeded")?;
    check_against_reference(ctx, report, &labs, &scenarios, &samples);

    if !ctx.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("ops_per_s", median(&rates), "1/s");
        report.metric("peak_rss_mb", crate::record::peak_rss_mb(), "MB");
        return Ok(());
    }

    // Per-layer numbers from the traced half.
    report.metric(
        "machine.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    probe_cache(report, &labs, &scenarios, &samples);
    traced_pass(ctx, report, tracer, &specs, &spaces, lab_seed, batch)?;
    stage_pass(report, &specs, &labs, &scenarios)?;
    pool_pass(report, &specs, &scenarios, lab_seed)?;
    Ok(())
}

/// Compare a seeded sample of collected scenarios bit for bit against the
/// naive reference engine on the same IR.
fn check_against_reference(
    ctx: &Ctx,
    report: &mut Report,
    labs: &[Lab],
    scenarios: &[Vec<Scenario>],
    samples: &[Vec<Sample>],
) {
    let mut rng = crate::gen::Rng::new(derive_seed(ctx.seed, 0x4ef));
    for ((lab, sc), got) in labs.iter().zip(scenarios).zip(samples) {
        let reference = match RefEngine::new(lab.machine().spec().clone()) {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("reference engine: {e}"));
                continue;
            }
        };
        for _ in 0..REF_CHECKS {
            let i = rng.below(sc.len());
            let verdict = lab
                .scenario_ir(&sc[i])
                .map_err(|e| e.to_string())
                .and_then(|ir| {
                    let want = reference
                        .run_scheduled(&ir.workload, ir.schedules.as_deref(), &ir.opts)
                        .map_err(|e| e.to_string())?;
                    let resident = lab.run_ir_outcome(&ir).map_err(|e| e.to_string())?;
                    Ok(want.wall_time_s.to_bits() == got[i].actual_time_s.to_bits()
                        && outcomes_bit_identical(&resident, &want))
                });
            report.check(verdict == Ok(true), || {
                format!("{} differs from the reference engine: {verdict:?}", sc[i])
            });
        }
    }
}

/// Time `Lab::cached_run` on scenarios resident in the run cache; each
/// probe must return the collected time exactly.
pub fn probe_cache(
    report: &mut Report,
    labs: &[Lab],
    scenarios: &[Vec<Scenario>],
    samples: &[Vec<Sample>],
) {
    let mut total = Duration::ZERO;
    let mut n = 0u32;
    let mut wrong = 0usize;
    for ((lab, sc), got) in labs.iter().zip(scenarios).zip(samples) {
        for (s, want) in sc.iter().zip(got) {
            let t0 = Instant::now();
            let hit = black_box(lab.cached_run(black_box(s)));
            total += t0.elapsed();
            n += 1;
            if !matches!(hit, Ok(Some(t)) if t.to_bits() == want.actual_time_s.to_bits()) {
                wrong += 1;
            }
        }
    }
    report.check(wrong == 0, || {
        format!("{wrong} cache probes missed a resident run")
    });
    report.metric(
        "machine.cache.probe_ns",
        total.as_nanos() as f64 / n as f64,
        "ns",
    );
}

/// The traced path's calls without spans, timed as a whole: the base the
/// tracing overhead is measured against.
fn untraced_twin(
    specs: &[MachineSpec],
    scenarios: &[Vec<Scenario>],
    lab_seed: u64,
) -> Result<Duration, String> {
    let t = Instant::now();
    for (spec, sc) in specs.iter().zip(scenarios) {
        let lab = Lab::new(spec.clone(), coloc_workloads::standard(), lab_seed)
            .map_err(|e| e.to_string())?;
        black_box(lab.baselines());
        for s in sc {
            let ir = lab.scenario_ir(s).map_err(|e| e.to_string())?;
            black_box(ir.digest());
            let _ = black_box(lab.machine().run_scheduled(
                &ir.workload,
                ir.schedules.as_deref(),
                &ir.opts,
            ));
            let _ = black_box(lab.featurize(s));
        }
    }
    Ok(t.elapsed())
}

/// The traced sweep: lowering → digest → engine (cache bypassed) →
/// featurize through their public calls, one span each. Every batch also
/// runs once untraced, on fresh labs, for the tracing overhead.
fn traced_pass(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    specs: &[MachineSpec],
    spaces: &[Space],
    lab_seed: u64,
    first_batch: u64,
) -> Result<(), String> {
    let budget = ctx.measure_budget();
    let start = Instant::now();
    let mut wall_ns = 0u64;
    let mut untraced = Duration::ZERO;
    let (mut scens, mut segments, mut fp_iters) = (0u64, 0u64, 0u64);
    let mut batch = first_batch;
    let mut req = 0u64;
    while batch == first_batch || start.elapsed() < budget {
        let scenarios = sweep_batch(ctx.seed, batch, spaces, PER_MACHINE);
        untraced += untraced_twin(specs, &scenarios, lab_seed)?;
        let root = tracer.open("bench.sweep", None, 0);
        for (spec, sc) in specs.iter().zip(&scenarios) {
            let lab = tracer.span("core.lab_new", Some(root), 0, || {
                Lab::new(spec.clone(), coloc_workloads::standard(), lab_seed)
            });
            let lab = lab.map_err(|e| e.to_string())?;
            tracer.span("core.baselines", Some(root), 0, || {
                black_box(lab.baselines());
            });
            for s in sc {
                req += 1;
                let id = tracer.open("bench.sweep.scenario", Some(root), req);
                let ir = tracer.span("core.lower", Some(id), req, || lab.scenario_ir(s));
                let ir = ir.map_err(|e| e.to_string())?;
                black_box(tracer.span("machine.ir.digest", Some(id), req, || ir.digest()));
                let out = tracer.span("machine.engine", Some(id), req, || {
                    lab.machine()
                        .run_scheduled(&ir.workload, ir.schedules.as_deref(), &ir.opts)
                });
                let f = tracer.span("core.featurize", Some(id), req, || lab.featurize(s));
                tracer.close(id);
                report.attempt(1);
                match (out, f) {
                    (Ok(out), Ok(f)) => {
                        black_box(f);
                        segments += out.segments as u64;
                        fp_iters += out.fp_iterations;
                        scens += 1;
                    }
                    (Err(e), _) => report.fail(format!("traced {s}: {e}")),
                    (_, Err(e)) => report.fail(format!("traced {s}: {e}")),
                }
            }
        }
        tracer.close(root);
        wall_ns += tracer.duration_ns(root);
        batch += 1;
    }

    let layers = tracer.layer_times();
    let mean_ns = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
    };
    crate::report_self_times(report, &layers, wall_ns);
    report.metric(
        "machine.engine.ns_per_scen",
        mean_ns("machine.engine"),
        "ns",
    );
    report.metric("machine.ir.digest_ns", mean_ns("machine.ir.digest"), "ns");
    report.metric("core.lower_ns", mean_ns("core.lower"), "ns");
    report.metric("core.featurize_ns", mean_ns("core.featurize"), "ns");
    report.metric("core.baselines_s", mean_ns("core.baselines") * 1e-9, "s");
    report.metric(
        "machine.segments",
        segments as f64 / scens.max(1) as f64,
        "1/scen",
    );
    report.metric(
        "machine.fp_iterations",
        fp_iters as f64 / scens.max(1) as f64,
        "1/scen",
    );
    report.metric(
        "trace.overhead_pct",
        (wall_ns as f64 / untraced.as_nanos() as f64 - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// Per-stage engine time through `Machine::run_instrumented` on a fresh
/// machine, over the first batch's scenarios.
pub fn stage_pass(
    report: &mut Report,
    specs: &[MachineSpec],
    labs: &[Lab],
    scenarios: &[Vec<Scenario>],
) -> Result<(), String> {
    let mut profile = StageProfile::new();
    let mut n = 0u64;
    for ((spec, lab), sc) in specs.iter().zip(labs).zip(scenarios) {
        let machine = Machine::new(spec.clone()).map_err(|e| e.to_string())?;
        for s in sc {
            let ir = lab.scenario_ir(s).map_err(|e| e.to_string())?;
            report.attempt(1);
            if let Err(e) = machine.run_instrumented(&ir.workload, &ir.opts, &mut profile) {
                report.fail(format!("instrumented {s}: {e}"));
            }
            n += 1;
        }
    }
    let (nanos, calls) = (profile.nanos(), profile.invocations());
    for id in StageId::ALL {
        let i = id.index();
        report.metric(
            format!("machine.stage.{}.ns", id.label()),
            nanos[i] as f64 / n as f64,
            "ns/scen",
        );
        report.metric(
            format!("machine.stage.{}.calls", id.label()),
            calls[i] as f64 / n as f64,
            "calls/scen",
        );
    }
    Ok(())
}

/// `run_indexed` at `nproc` workers against one worker, on one machine's
/// scenarios of the first batch, each on a fresh lab.
pub fn pool_pass(
    report: &mut Report,
    specs: &[MachineSpec],
    scenarios: &[Vec<Scenario>],
    lab_seed: u64,
) -> Result<(), String> {
    let threads = nproc();
    let sc = &scenarios[specs.len() - 1];
    let spec = &specs[specs.len() - 1..];
    let serial = fresh_labs(spec, lab_seed, 1)?;
    let t0 = Instant::now();
    let one = serial[0].collect_scenarios(sc).map_err(|e| e.to_string())?;
    let t_one = t0.elapsed().as_secs_f64();

    let parallel = fresh_labs(spec, lab_seed, threads)?;
    let busy = AtomicU64::new(0);
    let t0 = Instant::now();
    let many = coloc_ml::parallel::run_indexed(sc.len(), threads, |i| {
        let t = Instant::now();
        let s = parallel[0].sample(&sc[i]);
        busy.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        s
    });
    let t_many = t0.elapsed().as_secs_f64();
    let same = one
        .iter()
        .zip(&many)
        .all(|(a, b)| matches!(b, Ok(b) if a.actual_time_s.to_bits() == b.actual_time_s.to_bits()));
    report.check(same && one.len() == many.len(), || {
        "sweep differs between 1 and nproc workers".into()
    });
    report.metric("ml.pool.speedup", t_one / t_many, "x");
    report.metric(
        "ml.pool.busy_ratio",
        busy.load(Ordering::Relaxed) as f64 * 1e-9 / (threads as f64 * t_many),
        "ratio",
    );
    Ok(())
}
