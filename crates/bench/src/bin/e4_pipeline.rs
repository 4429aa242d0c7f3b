//! E4 — Figure 2 of the paper: the reduction pipeline, run end to end.
//!
//! The paper derives everything from LR-sorting:
//!
//! ```text
//!   LR-sorting (Lem 4.1) ──► path-outerplanarity (Thm 1.2)
//!        │                          │           │
//!        │                          ▼           ▼
//!        │                 outerplanarity   embedded planarity (Thm 1.4)
//!        │                  (Thm 1.3)              │
//!        │                                        ▼
//!        │                                  planarity (Thm 1.5)
//!        └────────► series-parallel (Thm 1.6) ──► treewidth ≤ 2 (Thm 1.7)
//! ```
//!
//! This binary exercises every arrow with a live instance: the sub-
//! protocol of each node of the chart runs inside its successor.

use pdip_bench::{print_table, Family, YesInstance};
use pdip_graph::gen;
use pdip_obs::NoopRecorder;
use pdip_protocols::{LrParams, LrSorting, PopParams, Transport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    println!("E4 — the Figure-2 dependency pipeline, exercised end to end\n");
    let n = 400;
    let mut rows = Vec::new();
    let mut rng = SmallRng::seed_from_u64(4);

    // The root of the chart: LR-sorting itself.
    let lr_inst = gen::lr::random_lr_yes(n, n / 2, true, &mut rng);
    let lr = LrSorting::new(&lr_inst, LrParams::default(), Transport::Native);
    let res = lr.run(None, 1, &NoopRecorder);
    rows.push(vec![
        "LR-sorting (Lemma 4.1)".into(),
        "—".into(),
        format!("{}", res.accepted()),
        res.stats.proof_size().to_string(),
    ]);
    assert!(res.accepted());

    // Each theorem node, which internally runs its predecessors.
    for (fam, depends) in [
        (Family::PathOuterplanar, "LR-sorting + path commitment + nesting"),
        (Family::Outerplanar, "path-outerplanarity per block (Thm 6.1)"),
        (Family::EmbeddedPlanarity, "path-outerplanarity on h(G,T,ρ) (Lem 7.1)"),
        (Family::Planarity, "embedded planarity + ρ distribution (Lem 7.2)"),
        (Family::SeriesParallel, "nesting per ear (Lem 8.1 decomposition)"),
        (Family::Treewidth2, "series-parallel per block (Lem 8.2)"),
    ] {
        let inst = YesInstance::generate(fam, n, 1234);
        let (ok, size) = inst.with_protocol(PopParams::default(), Transport::Native, |p| {
            let r = p.run_honest(2);
            (r.accepted(), r.stats.proof_size())
        });
        rows.push(vec![fam.name().into(), depends.into(), ok.to_string(), size.to_string()]);
        assert!(ok, "{} failed in the pipeline", fam.name());
    }
    print_table(&["protocol", "built on", "accepted", "proof bits"], &rows);
    println!("\nEvery arrow of Figure 2 executed with a live instance. ✓");
}
