//! `repro perf` — the tracked performance trajectory.
//!
//! Runs a pinned, seeded sweep on the 6-core lab and writes
//! `BENCH_<pr>.json` at the workspace root: scenarios/sec cold (engine)
//! and memoized (cache-served) at 1 and 8 worker threads, timed with
//! stage instrumentation off; the per-stage nanosecond breakdown from
//! [`coloc_model::SweepStats`], taken from a separate instrumented pass;
//! and run-cache traffic. The artifact is checked in, so every future PR
//! regresses against the committed `baseline_cold_1t_scen_per_sec`
//! field: the CI `perf` job fails when cold single-thread throughput
//! drops more than [`REGRESSION_TOLERANCE`] below it.
//!
//! The plan is fixed (same seed, same scenarios) so numbers are comparable
//! across commits on the same hardware; absolute values shift with the
//! host, which is why the gate is a *relative* bound against the committed
//! baseline rather than an absolute floor.

use crate::SEED;
use coloc_machine::StageId;
use coloc_model::{Lab, SweepStats, TrainingPlan};
use std::path::PathBuf;

/// PR number stamped into the artifact name (`BENCH_10.json`).
pub const PERF_PR: u32 = 10;

/// Relative regression the gate tolerates on cold 1-thread scenarios/sec
/// before failing (CI-runner jitter headroom).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Per-stage cost line in the artifact.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct StageLine {
    /// Stage label ([`StageId::label`]).
    pub stage: String,
    /// Invocations in the instrumented 1-thread cold pass.
    pub invocations: u64,
    /// Wall nanoseconds in the instrumented 1-thread cold pass.
    pub nanos: u64,
}

/// Throughput measurements at one worker-thread count.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct ThroughputLine {
    /// Worker threads used for the sweep.
    pub threads: usize,
    /// Scenarios/sec with an empty run cache (every run hits the engine).
    pub cold_scen_per_sec: f64,
    /// Scenarios/sec on the immediate re-sweep (fully memoized).
    pub memo_scen_per_sec: f64,
}

/// Service-level measurements from `repro serve-bench`: client-observed
/// latency quantiles and shed accounting against a live `coloc serve`.
/// Optional because `repro perf` writes the artifact first and
/// `repro serve-bench` fills this section in afterwards; regeneration
/// carries a committed section forward.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServiceLine {
    /// Closed-loop client threads driving the load.
    pub clients: usize,
    /// Successful answers across the timed phase.
    pub queries: u64,
    /// Answers per second across the timed phase (all clients).
    pub qps: f64,
    /// Queries shed with `overloaded` during the timed phase.
    pub shed: u64,
    /// `shed / (queries + shed)`.
    pub shed_rate: f64,
    /// Client-observed median round-trip latency, milliseconds (exact,
    /// not histogram-bucketed: each client times every round trip).
    pub client_p50_ms: f64,
    /// Client-observed 95th-percentile latency, milliseconds.
    pub client_p95_ms: f64,
    /// Client-observed 99th-percentile latency, milliseconds.
    pub client_p99_ms: f64,
    /// Answers the server labeled degraded.
    pub degraded: u64,
}

/// Cross-interference matrix section from `repro matrix`: the full
/// pairwise (11×11) measured matrix scored against a registry-resolved
/// model. Optional for the same reason as [`ServiceLine`]: `repro perf`
/// writes the artifact first and `repro matrix` fills this section in;
/// regeneration carries a committed section forward.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MatrixLine {
    /// Machine preset the matrix was measured on.
    pub machine: String,
    /// P-state of every run.
    pub pstate: usize,
    /// Apps per axis (the full suite: 11).
    pub apps: usize,
    /// Provenance digest (hex) of the scoring model artifact.
    pub model_digest: String,
    /// Mean percentage error of predicted vs measured pair times.
    pub mpe_pct: f64,
    /// Normalized RMSE of predicted vs measured pair times, percent.
    pub nrmse_pct: f64,
    /// Worst single-cell absolute percent error.
    pub max_abs_pct_err: f64,
    /// Whether every identical-app pair's counters mirrored bitwise.
    pub identical_pairs_symmetric: bool,
}

/// The `BENCH_<pr>.json` artifact.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PerfReport {
    /// Artifact schema version.
    pub schema_version: u32,
    /// PR that produced this artifact.
    pub pr: u32,
    /// Master seed of the pinned plan.
    pub seed: u64,
    /// Machine preset the plan runs on.
    pub machine: String,
    /// Scenarios per sweep pass.
    pub scenarios: usize,
    /// Regression-gate reference: cold 1-thread scenarios/sec committed
    /// with the artifact. Carried forward from the previous artifact on
    /// re-generation so the gate always compares against the committed
    /// trajectory, not the run that happens to regenerate the file.
    pub baseline_cold_1t_scen_per_sec: f64,
    /// Cold 1-thread scenarios/sec of the pre-SoA engine (PR 5), measured
    /// by this same harness — the denominator of this PR's speedup claim.
    pub pre_pr_cold_1t_scen_per_sec: f64,
    /// Throughput at each measured thread count.
    pub throughput: Vec<ThroughputLine>,
    /// Per-stage engine cost over one instrumented cold pass, run apart
    /// from the timed passes.
    pub stages: Vec<StageLine>,
    /// Run-cache hits across all passes.
    pub cache_hits: u64,
    /// Run-cache misses across all passes.
    pub cache_misses: u64,
    /// Hit fraction across all passes.
    pub cache_hit_rate: f64,
    /// Service-level section, written by `repro serve-bench` (absent
    /// until that harness has run against this artifact).
    pub service: Option<ServiceLine>,
    /// Cross-interference matrix section, written by `repro matrix`
    /// (absent until that harness has run against this artifact).
    pub matrix: Option<MatrixLine>,
}

/// The pinned perf plan: both machines' shared 6-core lab, two P-states,
/// every suite target, the four training co-runners, three counts —
/// 2 × 11 × 4 × 3 = 264 distinct scenarios, all engine work on a cold
/// cache.
pub fn perf_plan() -> TrainingPlan {
    TrainingPlan {
        pstates: vec![0, 3],
        targets: coloc_workloads::standard()
            .iter()
            .map(|b| b.name.to_string())
            .collect(),
        co_runners: coloc_workloads::suite::training_co_runners()
            .iter()
            .map(|b| b.name.to_string())
            .collect(),
        counts: vec![1, 3, 5],
    }
}

/// One cold + one memoized timed pass at `threads` workers, on a fresh
/// lab (empty run cache) with stage instrumentation off, so the timed
/// numbers include no per-stage clock reads. Baselines are forced before
/// timing so the sweep numbers measure sweep work only. Returns the
/// throughput line and the lab's final sweep stats (stage counters
/// zero; see [`attribute_stages`]).
fn measure(threads: usize) -> (ThroughputLine, SweepStats) {
    let lab: Lab = crate::lab_6core().with_threads(threads);
    let plan = perf_plan();
    let n = plan.len();
    lab.baselines();

    let t0 = std::time::Instant::now();
    let cold = lab.collect(&plan).expect("cold perf sweep");
    let cold_s = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let warm = lab.collect(&plan).expect("memoized perf sweep");
    let warm_s = t0.elapsed().as_secs_f64();
    assert_eq!(cold.len(), n);
    assert_eq!(warm.len(), n);

    (
        ThroughputLine {
            threads,
            cold_scen_per_sec: n as f64 / cold_s,
            memo_scen_per_sec: n as f64 / warm_s,
        },
        lab.sweep_stats(),
    )
}

/// The per-stage breakdown: one untimed cold pass of the pinned plan at
/// one worker, on a fresh instrumented lab. Returns that lab's sweep
/// stats, whose stage counters cover exactly the engine runs of one cold
/// pass.
fn attribute_stages() -> SweepStats {
    let lab: Lab = crate::lab_6core().with_threads(1).with_stage_stats(true);
    lab.baselines();
    lab.collect(&perf_plan()).expect("instrumented perf sweep");
    lab.sweep_stats()
}

/// Where the committed artifact lives: the workspace root (override with
/// `COLOC_BENCH_DIR`).
pub fn artifact_path() -> PathBuf {
    artifact_dir().join(format!("BENCH_{PERF_PR}.json"))
}

fn artifact_dir() -> PathBuf {
    std::env::var_os("COLOC_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")))
}

/// The committed artifact to gate against: this PR's when present, else
/// the most recent earlier PR's that parses as a perf report — so the
/// first generation after a PR bump still regresses against the
/// committed trajectory instead of against itself. Earlier `BENCH_*`
/// files with other schemas (e.g. the placement artifact) fail to parse
/// and are skipped.
fn committed_report() -> Option<PerfReport> {
    let read = |path: PathBuf| -> Option<PerfReport> {
        std::fs::read(path)
            .ok()
            .and_then(|bytes| serde_json::from_slice(&bytes).ok())
    };
    read(artifact_path()).or_else(|| {
        (1..PERF_PR)
            .rev()
            .find_map(|pr| read(artifact_dir().join(format!("BENCH_{pr}.json"))))
    })
}

/// Run the pinned perf sweep, write `BENCH_<pr>.json`, and gate against
/// the committed baseline. Exits non-zero on regression.
pub fn run_perf() {
    let path = artifact_path();
    let committed = committed_report();

    println!("perf: pinned plan, {} scenarios/pass", perf_plan().len());
    let mut throughput = Vec::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for threads in [1usize, 8] {
        let (line, stats) = measure(threads);
        println!(
            "  {} thread(s): cold {:.1} scen/s, memoized {:.1} scen/s",
            threads, line.cold_scen_per_sec, line.memo_scen_per_sec
        );
        hits += stats.cache_hits;
        misses += stats.cache_misses;
        throughput.push(line);
    }
    let stats = attribute_stages();
    if let Some(summary) = stats.stage_summary() {
        println!("  1-thread stage breakdown (separate instrumented cold pass):\n{summary}");
    }

    let cold_1t = throughput[0].cold_scen_per_sec;
    // The committed baseline is the gate reference; regenerating the
    // artifact carries it (and the pre-PR measurement) forward verbatim.
    let baseline = committed
        .as_ref()
        .map(|c| c.baseline_cold_1t_scen_per_sec)
        .filter(|&b| b > 0.0)
        .unwrap_or(cold_1t);
    let pre_pr = committed
        .as_ref()
        .map(|c| c.pre_pr_cold_1t_scen_per_sec)
        .filter(|&b| b > 0.0)
        .unwrap_or(0.0);

    let report = PerfReport {
        schema_version: 1,
        pr: PERF_PR,
        seed: SEED,
        machine: "xeon_e5649".to_string(),
        scenarios: perf_plan().len(),
        baseline_cold_1t_scen_per_sec: baseline,
        pre_pr_cold_1t_scen_per_sec: pre_pr,
        throughput,
        stages: StageId::ALL
            .iter()
            .map(|id| StageLine {
                stage: id.label().to_string(),
                invocations: stats.stage_invocations[id.index()],
                nanos: stats.stage_nanos[id.index()],
            })
            .collect(),
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        // The service and matrix sections belong to `repro serve-bench`
        // and `repro matrix`; committed sections survive perf
        // regeneration untouched.
        service: committed.as_ref().and_then(|c| c.service.clone()),
        matrix: committed.as_ref().and_then(|c| c.matrix.clone()),
    };

    let bytes = serde_json::to_vec_pretty(&report).expect("serialize perf report");
    std::fs::write(&path, bytes).expect("write perf artifact");
    println!("wrote {}", path.display());

    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    if cold_1t < floor {
        eprintln!(
            "PERF REGRESSION: cold 1-thread {cold_1t:.1} scen/s is below \
             {floor:.1} (committed baseline {baseline:.1} − {:.0}%)",
            REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "perf gate: cold 1-thread {cold_1t:.1} scen/s vs committed baseline \
         {baseline:.1} (floor {floor:.1}) — ok"
    );
}
