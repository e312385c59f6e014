//! Integration test: the Section II.B strategy comparison, asserting the
//! qualitative orderings the paper describes rather than absolute numbers.
//!
//! Runs as one sweep over the full strategy axis so the comparison is the
//! same grid the bench harness prints.

use edc_bench::sweep::{run_specs_timed_in, SweepRow};
use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::experiment::ExperimentSpec;
use energy_driven::core::scenarios::{SourceKind, StrategyKind};
use energy_driven::transient::RunOutcome;
use energy_driven::units::Seconds;
use energy_driven::workloads::WorkloadKind;

fn survey() -> &'static [SweepRow] {
    // Both tests read the same grid; run the multi-second sweep once.
    static SURVEY: std::sync::OnceLock<Vec<SweepRow>> = std::sync::OnceLock::new();
    SURVEY.get_or_init(|| {
        // Fourier-64 (~25 ms) does not fit the ~10 ms on-window of a 50 Hz
        // rectified sine, so completion requires checkpointing.
        let base = ExperimentSpec::new(
            SourceKind::RectifiedSine { hz: 50.0 },
            StrategyKind::Hibernus,
            WorkloadKind::Fourier(64),
        )
        .deadline(Seconds(3.0));
        let specs = StrategyKind::ALL.map(|s| base.strategy(s)).to_vec();
        run_specs_timed_in(specs, 2, &TraceCatalog::new())
            .expect("the strategy grid assembles")
            .rows
    })
}

fn row(rows: &[SweepRow], kind: StrategyKind) -> &SweepRow {
    rows.iter()
        .find(|r| r.spec.strategy == kind)
        .expect("grid covers every strategy")
}

#[test]
fn checkpointing_strategies_complete_where_restart_cannot() {
    let rows = survey();
    let restart = row(rows, StrategyKind::Restart);
    assert_ne!(
        restart.report.outcome,
        RunOutcome::Completed,
        "restart must not finish a multi-window workload"
    );
    for kind in [
        StrategyKind::Mementos,
        StrategyKind::Hibernus,
        StrategyKind::HibernusPP,
        StrategyKind::HibernusPn,
        StrategyKind::QuickRecall,
        StrategyKind::Nvp,
    ] {
        let r = row(rows, kind);
        assert!(
            r.report.succeeded(),
            "{} did not complete+verify",
            kind.name()
        );
        assert_eq!(
            r.report.strategy,
            kind.name(),
            "report must carry the real strategy name"
        );
    }
}

#[test]
fn mementos_takes_more_snapshots_than_hibernus() {
    // The paper's downside (1): redundant snapshots. Mementos checkpoints at
    // every marker below its threshold; Hibernus exactly once per failure.
    let rows = survey();
    let mementos = &row(rows, StrategyKind::Mementos).report.stats;
    let hibernus = &row(rows, StrategyKind::Hibernus).report.stats;
    assert!(
        mementos.snapshots + mementos.torn_snapshots > hibernus.snapshots,
        "mementos {} + {} torn vs hibernus {}",
        mementos.snapshots,
        mementos.torn_snapshots,
        hibernus.snapshots
    );
    assert_eq!(
        hibernus.torn_snapshots, 0,
        "hibernus must never tear (Eq. 4)"
    );
}
