//! `repro conformance` — the differential oracle and metamorphic law
//! suite, end to end.
//!
//! One seeded, deterministic demonstration of the conformance harness,
//! asserting its acceptance criteria as it goes: the checked-in corpus
//! replays clean, a generated-scenario sweep agrees with the naive
//! reference engine within 1e-9 relative on slowdown, and every
//! metamorphic law holds over a fresh batch of seeds.

use coloc_conformance::{all_laws, default_corpus_dir, differential_sweep, verify_dir};

/// Scenarios in the differential stage. Matches the test suite's floor.
const SWEEP_CASES: usize = 400;
const SWEEP_SEED: u64 = 0xC0_10C;

/// Run the whole conformance demonstration, printing each stage's
/// evidence.
pub fn run_conformance() {
    // ---- Stage 1: replay the checked-in corpus --------------------------
    let dir = default_corpus_dir();
    let report = verify_dir(&dir).expect("corpus directory must be readable");
    assert!(
        report.is_clean(),
        "corpus replay failures:\n{}",
        report.failures.join("\n")
    );
    assert!(
        report.total() >= 10,
        "corpus thinner than the seed set ({} cases)",
        report.total()
    );
    println!(
        "stage 1: corpus {} — {} cases replayed clean ({} differential, {} law)",
        dir.display(),
        report.total(),
        report.differential,
        report.law_checks
    );

    // ---- Stage 2: differential sweep against the naive reference --------
    match differential_sweep(SWEEP_SEED, SWEEP_CASES) {
        Ok(summary) => {
            assert!(summary.faulted > 0 && summary.budgeted > 0 && summary.solo > 0);
            assert!(summary.events > 0, "no event-schedule case generated");
            assert!(summary.fast_forwarded > 0, "no fast-forwarded case");
            println!(
                "stage 2: {} generated scenarios agree with the reference engine \
                 ({} faulted, {} fp-budgeted, {} solo, {} event-scheduled, \
                 {} fast-forwarded; max slowdown gap {:.2e})",
                summary.cases,
                summary.faulted,
                summary.budgeted,
                summary.solo,
                summary.events,
                summary.fast_forwarded,
                summary.max_slowdown_gap
            );
        }
        Err(failure) => panic!(
            "differential divergence:\n{}\n{}",
            failure.case.describe(),
            failure.detail
        ),
    }

    // ---- Stage 3: every metamorphic law over fresh seeds ----------------
    for law in all_laws() {
        for i in 0..law.cases_per_run() as u64 {
            if let Err(v) = law.check_seed(0x1A55 + i) {
                panic!("{v}");
            }
        }
        println!(
            "stage 3: law `{}` held over {} cases ({})",
            law.name(),
            law.cases_per_run(),
            law.provenance()
        );
    }

    println!("conformance: all stages passed");
}
