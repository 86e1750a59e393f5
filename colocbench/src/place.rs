//! `place`: one `PlacementSim` on the standard mixed fleet, running
//! `PlacePolicy::benchmark_set()` in its fixed order. The only workload
//! that runs the `placement` crate, the 8- and 16-core presets, and
//! duplicate-collapsing oracle batches.

use crate::record::{nproc, peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use coloc_ml::rng::{derive_seed, derive_seed_str};
use coloc_model::{Lab, ModelRegistry};
use coloc_placement::fleet::{key_add, key_remove, ContentsKey};
use coloc_placement::{
    Assignment, ClassMix, Fleet, FleetSpec, PlacePolicy, PlacementSim, PolicyOutcome, SimConfig,
    SpecEstimator, SpecOracle,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Copies of the standard mixed rack (8 sockets, 74 cores each).
const SCALE: usize = 2;
/// Jobs in the seeded stream.
const JOBS: usize = 8000;
/// Assignments replayed through a fresh estimator and oracle when traced.
const REPLAY: usize = 400;

fn config(seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        fleet: FleetSpec::standard(SCALE),
        jobs: JOBS,
        mix: ClassMix::uniform(),
        seed,
        pstate: 0,
        qos_threshold: 1.5,
        noise_sigma: None,
        threads,
    }
}

/// A policy's per-layer metric name and span name.
fn policy_names(p: &PlacePolicy) -> (&'static str, &'static str) {
    match p {
        PlacePolicy::PackFirstFit => (
            "placement.policy_s.pack_first_fit",
            "placement.policy.pack_first_fit",
        ),
        PlacePolicy::LeastInterference => (
            "placement.policy_s.least_interference",
            "placement.policy.least_interference",
        ),
        PlacePolicy::RegretBatched { .. } => (
            "placement.policy_s.regret_batched",
            "placement.policy.regret_batched",
        ),
    }
}

/// What [`run_set`] returns: the simulator, its set-up seconds, and each
/// policy's seconds and outcome in benchmark order.
type SetRun = (PlacementSim, f64, Vec<(f64, PolicyOutcome)>);

/// One simulator and the benchmark set on it.
fn run_set(cfg: &SimConfig) -> Result<SetRun, String> {
    let t = Instant::now();
    let mut sim = PlacementSim::new(cfg.clone()).map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut out = Vec::new();
    for p in PlacePolicy::benchmark_set() {
        let t = Instant::now();
        let o = sim.run_policy(p).map_err(|e| format!("{p}: {e}"))?;
        out.push((t.elapsed().as_secs_f64(), o));
    }
    Ok((sim, setup_s, out))
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    // Timed at one worker, like sweep: a one-thread rate does not swing
    // when a neighbour steals one of a small host's cores. Determinism
    // is checked at `nproc`.
    let threads = nproc();
    let cfg = config(derive_seed(ctx.seed, 5), 1);
    report.param(
        "fleet",
        format!(
            "standard({SCALE}): {} sockets, {} cores",
            cfg.fleet.total_sockets(),
            cfg.fleet.total_cores()
        ),
    );
    report.param("jobs", JOBS);
    report.param("mix", "uniform");
    report.param(
        "policies",
        "pack-first-fit,least-interference,regret-batched(256,3)",
    );
    report.param("threads", 1);
    report.param("op", "job placed by regret-batched");

    let budget = ctx.measure_budget();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut rb_times = Vec::new();
    let mut policy_times: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut first: Option<Vec<PolicyOutcome>> = None;
    let mut last_sim = None;
    while setups.is_empty() || start.elapsed() < budget {
        report.attempt(3 * JOBS as u64);
        let (sim, setup_s, outcomes) = match run_set(&cfg) {
            Ok(r) => r,
            Err(e) => {
                report.fail_n(3 * JOBS as u64, e);
                break;
            }
        };
        setups.push(setup_s);
        for (i, (t, _)) in outcomes.iter().enumerate() {
            policy_times[i].push(*t);
        }
        rb_times.push(outcomes[2].0);
        let outcomes: Vec<PolicyOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        match &first {
            None => first = Some(outcomes),
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&outcomes)
                    .all(|(a, b)| a.digest() == b.digest());
                report.check(same, || {
                    "placement outcome changed between identical runs".into()
                });
            }
        }
        last_sim = Some(sim);
    }
    let outcomes = first.ok_or("no placement run succeeded")?;
    let mut sim = last_sim.expect("a sim ran with the outcomes");
    report.param("repeats", setups.len());

    // Assignment checks from the traced variant of regret-batched, on
    // the warm simulator: same digest, every job once, capacity kept.
    let rb = PlacePolicy::benchmark_set()[2];
    let t = Instant::now();
    let traced = sim.run_policy_traced(rb).map_err(|e| e.to_string())?;
    let traced_rb_s = t.elapsed().as_secs_f64();
    report.check(traced.0.digest() == outcomes[2].digest(), || {
        "traced regret-batched differs from the untraced run".into()
    });
    check_assignments(report, &cfg.fleet, &traced.1);

    // Determinism at `nproc` workers.
    let (_, _, parallel) = run_set(&config(cfg.seed, threads))?;
    for ((_, p), o) in parallel.iter().zip(&outcomes) {
        report.check(p.digest() == o.digest(), || {
            format!(
                "{} outcome differs between 1 and {threads} threads",
                o.policy
            )
        });
    }

    if !ctx.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("ops_per_s", JOBS as f64 / median(&rb_times), "1/s");
        report.metric("regret_mean", outcomes[2].regret_mean, "slowdown");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(());
    }

    for (p, times) in PlacePolicy::benchmark_set().iter().zip(&policy_times) {
        report.metric(policy_names(p).0, median(times), "s");
    }
    report.metric(
        "placement.oracle_evals",
        outcomes[2].oracle_evaluations as f64,
        "count",
    );
    report.metric("placement.waves", outcomes[2].waves as f64, "count");
    traced_pass(report, tracer, &cfg, median(&rb_times), traced_rb_s)?;
    replay(report, tracer, &cfg, &traced.1)
}

/// Every job placed exactly once, and no socket over its cores in any
/// wave.
fn check_assignments(report: &mut Report, fleet: &FleetSpec, assignments: &[Assignment]) {
    let mut seen = vec![0u32; JOBS];
    for a in assignments {
        if let Some(n) = seen.get_mut(a.job) {
            *n += 1;
        }
    }
    let unplaced = seen.iter().filter(|&&n| n != 1).count();
    report.check(assignments.len() == JOBS && unplaced == 0, || {
        format!(
            "{unplaced} jobs not placed exactly once ({} assignments)",
            assignments.len()
        )
    });
    let layout = Fleet::new(fleet);
    let mut load: HashMap<(usize, u32), usize> = HashMap::new();
    for a in assignments {
        *load.entry((a.wave, a.socket)).or_default() += 1;
    }
    let over = load
        .iter()
        .filter(|((_, s), n)| **n > fleet.groups[layout.group_of(*s)].machine.cores)
        .count();
    report.check(over == 0, || format!("{over} sockets over capacity"));
}

/// The traced benchmark set: one span for the set-up and one per policy.
fn traced_pass(
    report: &mut Report,
    tracer: &mut Tracer,
    cfg: &SimConfig,
    untraced_rb_s: f64,
    warm_traced_rb_s: f64,
) -> Result<(), String> {
    let root = tracer.open("bench.place", None, 0);
    let sim = tracer.span("placement.setup", Some(root), 0, || {
        PlacementSim::new(cfg.clone())
    });
    let mut sim = sim.map_err(|e| e.to_string())?;
    let mut rb_s = 0.0;
    for p in PlacePolicy::benchmark_set() {
        let id = tracer.open(policy_names(&p).1, Some(root), 0);
        let o = sim.run_policy_traced(p);
        tracer.close(id);
        report.attempt(JOBS as u64);
        if let Err(e) = o {
            report.fail_n(JOBS as u64, format!("traced {p}: {e}"));
        }
        rb_s = tracer.duration_ns(id) as f64 * 1e-9;
    }
    tracer.close(root);
    let layers = tracer.layer_times();
    crate::report_self_times(report, &layers, tracer.duration_ns(root));
    report.metric(
        "trace.overhead_pct",
        (rb_s / untraced_rb_s - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "placement.policy_s.regret_batched_warm",
        warm_traced_rb_s,
        "s",
    );
    Ok(())
}

/// Replay the socket contents of a seeded sample of assignments through
/// a fresh estimator and oracle per spec, timing each call.
fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    cfg: &SimConfig,
    assignments: &[Assignment],
) -> Result<(), String> {
    let layout = Fleet::new(&cfg.fleet);
    let mut contents: HashMap<(usize, u32), ContentsKey> = HashMap::new();
    for a in assignments {
        let k = contents.entry((a.wave, a.socket)).or_insert(0);
        *k = key_add(*k, a.app);
    }

    // One fresh lab, estimator and oracle per distinct spec, seeded the
    // way the simulator seeds its own.
    let mut names: Vec<String> = Vec::new();
    let mut labs: Vec<Lab> = Vec::new();
    let (mut baselines_s, mut estimator_s, mut resolve_s, mut lstsq_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut estimators = Vec::new();
    let mut oracles = Vec::new();
    for g in &cfg.fleet.groups {
        if names.contains(&g.machine.name) {
            continue;
        }
        let lab = Lab::new(
            g.machine.clone(),
            coloc_workloads::standard(),
            derive_seed_str(cfg.seed, &g.machine.name),
        )
        .map_err(|e| e.to_string())?
        .with_threads(cfg.threads);
        let t = Instant::now();
        lab.baselines();
        baselines_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        estimators.push(SpecEstimator::train(&lab, cfg.pstate).map_err(|e| e.to_string())?);
        estimator_s += t.elapsed().as_secs_f64();
        // A cold resolve of the same request on a registry that has not
        // seen it; the lab's run cache already holds the training sweep,
        // so this times collect-from-cache plus the fit.
        let t = Instant::now();
        let req = SpecEstimator::request(&lab, cfg.pstate);
        black_box(
            ModelRegistry::new()
                .resolve(&lab, &req)
                .map_err(|e| e.to_string())?,
        );
        resolve_s += t.elapsed().as_secs_f64();
        lstsq_ns += crate::lstsq_ns(&lab, &req.plan)?;
        oracles.push(SpecOracle::new(&lab, cfg.pstate));
        names.push(g.machine.name.clone());
        labs.push(lab);
    }
    let specs = names.len() as f64;
    report.metric("core.baselines_s", baselines_s / specs, "s");
    report.metric("placement.setup.estimator_s", estimator_s, "s");
    report.metric("core.registry.resolve_s", resolve_s / specs, "s");
    report.metric("linalg.lstsq_ns", lstsq_ns / specs, "ns");

    let mut rng = crate::gen::Rng::new(derive_seed(cfg.seed, 0x7e9));
    let root = tracer.open("bench.place.replay", None, 0);
    let (mut est_ns, mut ora_ns, mut n) = (0u64, 0u64, 0u64);
    for _ in 0..REPLAY.min(assignments.len()) {
        let a = assignments[rng.below(assignments.len())];
        let spec_name = &cfg.fleet.groups[layout.group_of(a.socket)].machine.name;
        let si = names
            .iter()
            .position(|s| s == spec_name)
            .expect("every group has a spec");
        let others = key_remove(contents[&(a.wave, a.socket)], a.app);
        let id = tracer.open("placement.estimator.slowdown", Some(root), a.job as u64 + 1);
        let sd = estimators[si].slowdown(&labs[si], a.app, others);
        tracer.close(id);
        est_ns += tracer.duration_ns(id);
        let id = tracer.open("placement.oracle.time", Some(root), a.job as u64 + 1);
        let t = oracles[si].time(&labs[si], a.app, others);
        tracer.close(id);
        ora_ns += tracer.duration_ns(id);
        report.attempt(2);
        match (sd, t) {
            (Ok(sd), Ok(t)) => {
                black_box((sd, t));
            }
            (Err(e), _) | (_, Err(e)) => report.fail(format!("replay job {}: {e}", a.job)),
        }
        n += 1;
    }
    tracer.close(root);
    report.metric(
        "placement.estimator.slowdown_ns",
        est_ns as f64 / n.max(1) as f64,
        "ns",
    );
    report.metric(
        "placement.oracle.time_ns",
        ora_ns as f64 / n.max(1) as f64,
        "ns",
    );
    Ok(())
}
