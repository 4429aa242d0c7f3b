//! Figure 1 of the paper, reproduced: the anatomy of a path-outerplanar
//! graph — longest left/right edges, successors, and the `above`
//! assignment — on the paper's own six-node example.
//!
//! The figure shows path a–b–c–d–e–f with arcs (c,e), (c,f), (b,f) and
//! states: "The longest c-right edge is (c,f); the longest f-left edge is
//! (b,f); the successor of (c,e) is (c,f)." This example recomputes all
//! of that with the prover's sweep and then runs the full Theorem 1.2
//! protocol on the instance.
//!
//! ```text
//! cargo run --example figure1_anatomy
//! ```

use pdip_obs::NoopRecorder;
use planarity_dip::dip::Tag;
use planarity_dip::graph::Graph;
use planarity_dip::protocols::nesting;
use planarity_dip::protocols::{PathOuterplanarity, PopInstance, PopParams, Transport};

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn main() {
    // Path a(0) - b(1) - c(2) - d(3) - e(4) - f(5), arcs per Figure 1.
    let mut g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
    let ce = g.add_edge(2, 4);
    let cf = g.add_edge(2, 5);
    let bf = g.add_edge(1, 5);
    let path: Vec<usize> = (0..6).collect();

    println!("Figure 1: path a-b-c-d-e-f with arcs (c,e), (c,f), (b,f)\n");

    // Deterministic position tags make the labels easy to read.
    let positions: Vec<usize> = (0..6).collect();
    let mut is_path_edge = vec![false; g.m()];
    for i in 0..5 {
        is_path_edge[g.edge_between(i, i + 1).unwrap()] = true;
    }
    let tags: Vec<Tag> = (0..6).map(|v| Tag { value: v as u64, bits: 3 }).collect();
    let labels = nesting::sweep_assign(&g, &positions, &path, &is_path_edge, &tags);

    let show_name = |name: (Tag, Tag)| {
        format!("({}, {})", NAMES[name.0.value as usize], NAMES[name.1.value as usize])
    };
    for (arc, label_id) in [("(c,e)", ce), ("(c,f)", cf), ("(b,f)", bf)] {
        let l = labels.arcs[label_id].expect("arc label");
        println!(
            "arc {arc}: longest-right-of-tail = {:<5} longest-left-of-head = {:<5} succ = {}",
            l.longest_right_of_tail,
            l.longest_left_of_head,
            l.succ.map(show_name).unwrap_or_else(|| "⊥ (virtual)".into()),
        );
    }
    println!();
    for (v, name) in NAMES.iter().enumerate() {
        println!(
            "above({}) = {}",
            name,
            labels.above[v].above.map(show_name).unwrap_or_else(|| "⊥".into())
        );
    }

    // The paper's three claims:
    assert!(labels.arcs[cf].unwrap().longest_right_of_tail, "(c,f) is the longest c-right edge");
    assert!(labels.arcs[bf].unwrap().longest_left_of_head, "(b,f) is the longest f-left edge");
    let succ_ce = labels.arcs[ce].unwrap().succ.expect("(c,e) has a successor");
    assert_eq!((succ_ce.0.value, succ_ce.1.value), (2, 5), "succ(c,e) = (c,f)");
    println!("\nAll three Figure-1 claims verified. ✓");

    // And the full 5-round protocol accepts the instance.
    let inst = PopInstance { graph: g, witness: Some(path), is_yes: true };
    let proto = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
    let res = proto.run(None, 7, &NoopRecorder);
    println!(
        "Theorem 1.2 protocol: verdict = {}, proof size = {} bits over {} rounds.",
        if res.accepted() { "accept" } else { "reject" },
        res.stats.proof_size(),
        res.stats.rounds,
    );
    assert!(res.accepted());
}
