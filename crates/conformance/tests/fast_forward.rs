//! The engine's exact limit-cycle fast-forward against the naive
//! reference engine. Each fixture has segments whose fixed-point solve
//! reaches the iteration cap in a bit-exact cycle, so the engine skips
//! whole periods of it; every run variant must still match
//! [`RefEngine`], which executes every iteration, bit for bit. The stage
//! telemetry must account for every logical iteration: executed solver
//! stage runs plus fast-forwarded iterations equal `fp_iterations`.

use coloc_conformance::diff::outcomes_bit_identical;
use coloc_conformance::RefEngine;
use coloc_machine::{
    presets, AppPhase, AppProfile, GroupSchedule, Machine, MachineSpec, RunOptions, RunOutcome,
    RunnerGroup, StageId, StageProfile,
};

fn app(name: &str) -> AppProfile {
    coloc_workloads::by_name(name)
        .expect("standard benchmark")
        .app
}

fn mix(target: &str, co: &str, count: usize) -> Vec<RunnerGroup> {
    vec![
        RunnerGroup::solo(app(target)),
        RunnerGroup {
            app: app(co),
            count,
        },
    ]
}

/// Run `workload` plain, instrumented and traced, check all three
/// against the reference engine bit for bit and the telemetry identity,
/// and return the skipped-iteration count with the traced segments'
/// `(fp_iters, fast_forwarded)` pairs.
fn check(
    spec: &MachineSpec,
    workload: &[RunnerGroup],
    schedules: Option<&[GroupSchedule]>,
    opts: &RunOptions,
) -> (u64, Vec<(u64, u64)>) {
    let machine = Machine::new(spec.clone()).unwrap();
    let reference = RefEngine::new(spec.clone())
        .unwrap()
        .run_scheduled(workload, schedules, opts)
        .unwrap();
    let same = |what: &str, out: &RunOutcome| {
        assert!(
            outcomes_bit_identical(out, &reference),
            "{what} run diverged from the reference: {out:?} vs {reference:?}"
        );
    };
    same(
        "plain",
        &machine.run_scheduled(workload, schedules, opts).unwrap(),
    );

    let mut profile = StageProfile::new();
    let out = machine
        .run_scheduled_instrumented(workload, schedules, opts, &mut profile)
        .unwrap();
    same("instrumented", &out);
    let skipped = profile.fast_forwarded();
    for id in [StageId::LlcShare, StageId::DramFixedPoint] {
        assert_eq!(
            profile.get(id).invocations + skipped,
            out.fp_iterations,
            "{} runs + fast-forwarded != logical iterations",
            id.label()
        );
    }

    let (out, trace) = machine
        .run_scheduled_traced(workload, schedules, opts, usize::MAX)
        .unwrap();
    same("traced", &out);
    let segments: Vec<(u64, u64)> = trace
        .records()
        .map(|r| (r.fp_iters, r.fast_forwarded))
        .collect();
    assert_eq!(segments.len(), out.segments, "trace kept every segment");
    assert_eq!(segments.iter().map(|s| s.1).sum::<u64>(), skipped);
    assert!(segments.iter().all(|&(fp, ff)| ff < fp));
    (skipped, segments)
}

#[test]
fn shared_llc_cycles_fast_forward_bit_identically() {
    for (spec, target, co, count) in [
        (presets::xeon_e5649(), "fluidanimate", "sp", 3),
        (presets::xeon_e5649(), "streamcluster", "fluidanimate", 1),
        (presets::xeon_e5649(), "ft", "ep", 1),
        (presets::xeon_e5649(), "bodytrack", "cg", 3),
        (presets::xeon_e5_2697v2(), "cg", "fluidanimate", 1),
    ] {
        let wl = mix(target, co, count);
        let (skipped, _) = check(&spec, &wl, None, &RunOptions::default());
        assert!(skipped > 0, "{target} + {co}×{count} did not fast-forward");
    }
}

#[test]
fn partitioned_llc_cycles_fast_forward_bit_identically() {
    // With static slices the occupancy never moves; on a starved memory
    // channel the damped CPI / DRAM-latency update cycles on its own.
    let mut spec = presets::xeon_e5649();
    spec.dram.peak_bw_bytes_per_sec = 2e9;
    let streamer = AppProfile::single_phase(
        "streamer",
        10e9,
        AppPhase {
            weight: 1.0,
            dist: coloc_cachesim::StackDistanceDist::power_law(4_000_000, 0.3, 0.2),
            accesses_per_instr: 0.03,
            cpi_base: 0.5,
            mlp: 2.0,
        },
    );
    let wl = vec![
        RunnerGroup::solo(streamer.clone()),
        RunnerGroup {
            app: streamer,
            count: 3,
        },
    ];
    let opts = RunOptions {
        llc_partitioned: true,
        ..Default::default()
    };
    let (skipped, _) = check(&spec, &wl, None, &opts);
    assert!(skipped > 0, "partitioned fixture did not fast-forward");
}

#[test]
fn budgeted_caps_fast_forward_bit_identically() {
    // Three segments, two of which cycle to the full cap unbudgeted. A
    // fixed-point budget shrinks later caps anywhere from the degraded
    // floor (4) to the full 250: the remainder rule must land on each.
    let spec = presets::xeon_e5649();
    let wl = mix("ft", "ep", 1);
    let mut short_cap_skipped = false;
    for fp_budget in (1..=600).step_by(23) {
        let opts = RunOptions {
            fp_budget,
            ..Default::default()
        };
        let (_, segments) = check(&spec, &wl, None, &opts);
        short_cap_skipped |= segments
            .iter()
            .any(|&(fp, ff)| (5..250).contains(&fp) && ff > 0);
    }
    assert!(
        short_cap_skipped,
        "no budget-shortened cap was reached by a fast-forward"
    );
}

#[test]
fn scheduled_runs_fast_forward_bit_identically() {
    // A late arrival and an early departure split the run into eras; the
    // fast-forward runs inside each era's segment solves.
    let spec = presets::xeon_e5649();
    let wl = mix("fluidanimate", "sp", 3);
    let schedules = [
        GroupSchedule::default(),
        GroupSchedule {
            arrival_tick: 50.0,
            departure_tick: Some(100.0),
            ..GroupSchedule::default()
        },
    ];
    let opts = RunOptions::default();
    let (skipped, _) = check(&spec, &wl, Some(&schedules), &opts);
    assert!(skipped > 0, "scheduled fixture did not fast-forward");
    let (_, trace) = Machine::new(spec)
        .unwrap()
        .run_scheduled_traced(&wl, Some(&schedules), &opts, usize::MAX)
        .unwrap();
    let fired: u32 = trace.records().map(|r| r.events).sum();
    assert_eq!(fired, 2, "both events fire mid-run");
}
