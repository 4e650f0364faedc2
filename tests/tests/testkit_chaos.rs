//! Chaos-harness integration: the lockstep table's `invariants` row drives
//! the full network stack against the testkit's reference model and
//! invariant oracles. CI runs a much larger budget through the `fuzz`
//! binary; this suite keeps a fast smoke run plus the mutation check (an
//! injected accounting bug MUST be caught and MUST shrink small) in
//! `cargo test`.

use drqos_sim::seam::Seam;
use drqos_testkit::lockstep::{subject, Config};
use drqos_testkit::SubjectRow;

fn invariants() -> SubjectRow {
    subject("invariants").expect("the invariant row is registered")
}

#[test]
fn fuzz_smoke_clean_sequences_hold_all_invariants() {
    let config = Config {
        sequences: 150,
        ops_per_sequence: 60,
        seed: 2001,
    };
    let outcome = invariants().run(&config, 0);
    if let Some(failure) = outcome.failure {
        panic!("invariant violation:\n{}", failure.reproducer());
    }
    assert_eq!(outcome.sequences_run, 150);
}

#[test]
fn injected_accounting_bug_is_caught_and_shrunk() {
    // Mutation check: lose a release on the reference side and the
    // live-set / min-sum divergence must be detected, then shrunk to a
    // tiny reproducer (the fault needs only establish + release).
    let failure = invariants()
        .mutation_witness(Seam::LoseRelease, 2001)
        .expect("injected fault must be detected");
    assert!(
        failure.shrunk.len() <= 10,
        "reproducer should be minimal, got {} ops",
        failure.shrunk.len()
    );
    // The shrunk sequence must still reproduce from scratch, through the
    // entry point the reproducer prints.
    let replay = invariants().run_sequence(&failure.scenario, &failure.shrunk, failure.case);
    assert_eq!(replay, Some(failure.divergence.clone()));
    // And the printed reproducer is self-contained, copy-pasteable code.
    let repro = failure.reproducer();
    assert!(repro.contains("Scenario {"), "{repro}");
    assert!(repro.contains("mutant: Some(Seam::LoseRelease)"), "{repro}");
    assert!(
        repro.contains("lockstep::subject(\"invariants\")"),
        "{repro}"
    );
    assert!(repro.contains("run_sequence"), "{repro}");
}

#[test]
fn fuzz_runs_are_reproducible_from_the_seed() {
    let a = invariants().mutation_witness(Seam::LoseRelease, 77);
    let b = invariants().mutation_witness(Seam::LoseRelease, 77);
    let (fa, fb) = (a.expect("fault detected"), b.expect("fault detected"));
    assert_eq!(fa.case.seed, fb.case.seed);
    assert_eq!(fa.shrunk, fb.shrunk);
    assert_eq!(fa.reproducer(), fb.reproducer());
}
