//! Snapshot tests for the report layer: the aligned-table renderer and
//! the `[engine]` summary line, captured byte-for-byte through a
//! buffered [`Reporter`]. These strings are the stdout contract of the
//! experiment binaries (E1–E3, `pdip sweep`/`trace`), so format drift
//! must be a deliberate, test-visible change.

use pdip_engine::{Engine, Family, ProverSpec, Reporter, SweepSpec};
use pdip_obs::NoopRecorder;

#[test]
fn table_snapshot_is_stable() {
    let mut rep = Reporter::buffered();
    rep.table(
        &["protocol", "n", "bits"],
        &[
            vec!["planarity".into(), "64".into(), "1165".into()],
            vec!["sp".into(), "1024".into(), "253".into()],
        ],
    );
    // Built with concat! — a `\`-continued literal would strip the
    // significant leading padding off each line.
    let expected = concat!(
        " protocol     n  bits  \n",
        "-----------------------\n",
        "planarity    64  1165  \n",
        "       sp  1024   253  \n",
    );
    assert_eq!(rep.into_string(), expected);
}

#[test]
fn summary_line_snapshot_through_reporter() {
    let spec = SweepSpec {
        families: vec![Family::PathOuterplanar],
        sizes: vec![32],
        provers: vec![ProverSpec::Honest],
        trials: 2,
        base_seed: 9,
        ..SweepSpec::default()
    };
    let outcome = Engine::with_threads(2).run(&spec, &NoopRecorder);
    let mut rep = Reporter::buffered();
    rep.summary(&outcome.metrics);
    let got = rep.into_string();
    // Wall time and throughput are scheduling-dependent; everything
    // before them is the deterministic prefix of the contract.
    assert!(
        got.starts_with(
            "[engine] 2 jobs, 0 failures (0 quarantined, 0 timed out), 0 retries, 2 threads, "
        ),
        "summary line drifted: {got}"
    );
    // The memory tail reports VmHWM (present on Linux) and the allocator
    // peak ("untracked" here: test binaries install no tracking
    // allocator).
    assert!(got.trim_end().ends_with("alloc peak untracked"), "summary line drifted: {got}");
    assert!(got.contains("peak rss "), "summary line drifted: {got}");
}

#[test]
fn quiet_reporter_silences_table_and_summary() {
    let mut rep = Reporter::from_quiet_flag(true);
    rep.line("header");
    rep.table(&["a"], &[vec!["1".into()]]);
    assert_eq!(rep.into_string(), "");
}
