//! Golden-file pin of wire format v1: the committed
//! `results/golden_v1.transcript` must keep decoding, re-encoding
//! byte-identically, and replay-verifying to ACCEPT. Any codec change
//! that breaks this either corrupted the format accidentally or
//! requires a format-version bump plus a regenerated golden file
//! (`pdip prove path-outerplanarity --n 32 --gen-seed 7 --seed 11
//! --out results/golden_v1.transcript`) — see DESIGN.md §5.

use planarity_dip::protocols::{Family, Instance, PopParams, Transport};
use planarity_dip::wire::{fnv1a64, Transcript, VerifyOutcome, WireError, FORMAT_VERSION, MAGIC};

fn golden() -> Vec<u8> {
    std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden_v1.transcript"))
        .expect("results/golden_v1.transcript must be committed")
}

#[test]
fn golden_header_is_pinned() {
    let bytes = golden();
    assert_eq!(&bytes[..4], &MAGIC, "magic");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION, "format version");
    assert_eq!(bytes[6], 1, "family tag: path-outerplanarity");
    assert_eq!(bytes[7], 0, "prover: honest");
    assert_eq!(bytes[8], 0, "transport: native");
}

#[test]
fn golden_decodes_and_reencodes_byte_identically() {
    let bytes = golden();
    let t = Transcript::decode(&bytes).expect("golden transcript must decode");
    assert_eq!(t.instance.family_name(), "path-outerplanarity");
    assert_eq!(t.instance.n(), 32);
    assert_eq!(t.gen_seed, 7);
    assert_eq!(t.run_seed, 11);
    assert!(t.accepted, "golden records an accepting run");
    assert_eq!(t.encode(), bytes, "golden must re-encode byte-identically");
}

#[test]
fn golden_replay_verifies_to_accept() {
    let t = Transcript::decode(&golden()).expect("golden transcript must decode");
    match t.verify() {
        VerifyOutcome::Accepted(res) => assert_eq!(res.stats, t.stats),
        other => panic!("golden transcript must replay-verify to ACCEPT, got {other:?}"),
    }
}

/// The family tag is a family's position in `FAMILIES` plus 1; every
/// committed transcript depends on the historical table below, and a
/// tag outside it must be a structured decode error.
#[test]
fn every_family_tag_is_pinned() {
    let tags = [
        ("path-outerplanarity", 1u8),
        ("outerplanarity", 2),
        ("embedded-planarity", 3),
        ("planarity", 4),
        ("series-parallel", 5),
        ("treewidth-2", 6),
    ];
    for (name, tag) in tags {
        let fam = Family::from_name(name).expect(name);
        let inst = Instance::generate(fam, 16, 3);
        let t = Transcript::record(inst, PopParams::default(), Transport::Native, 0, 3, 5);
        let mut bytes = t.encode();
        assert_eq!(bytes[6], tag, "family tag of {name}");
        for bad in [0u8, 7] {
            bytes[6] = bad;
            let body = bytes.len() - 8;
            let ck = fnv1a64(&bytes[..body]);
            bytes[body..].copy_from_slice(&ck.to_le_bytes());
            let err = Transcript::decode(&bytes).expect_err("unknown tag must not decode");
            assert_eq!(err, WireError::Invalid(format!("unknown family tag {bad}")));
        }
    }
}
