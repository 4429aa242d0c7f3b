//! Malformed-input hardening of the wire decoder: chaos-corrupted blobs
//! (truncations, bit flips, oversized length fields) must always yield a
//! structured [`planarity_dip::wire::WireError`] — never a panic, and
//! never an allocation sized by attacker-controlled counts.

use pdip_engine::chaos::Mutator;
use pdip_engine::{Instance, FAMILIES};
use planarity_dip::protocols::{PopParams, Transport};
use planarity_dip::wire::{
    fault_class, fnv1a64, read_frame, read_frame_limited, write_frame, Transcript,
};
use std::io::Cursor;

fn family_blob(fi: usize, seed: u64) -> Vec<u8> {
    let inst = Instance::generate(FAMILIES[fi], 24, seed);
    Transcript::record(inst, PopParams::default(), Transport::Simulated, 0, seed, seed ^ 7).encode()
}

/// Recomputes the checksum trailer over a corrupted body so decoding
/// proceeds past the integrity check and into field validation — the
/// adversarial case the caps and index checks exist for.
fn resign(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let ck = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&ck.to_le_bytes());
}

#[test]
fn truncation_at_every_cut_is_a_structured_error() {
    for fi in 0..FAMILIES.len() {
        let bytes = family_blob(fi, 50 + fi as u64);
        for cut in (0..bytes.len()).step_by(13).chain([bytes.len() - 1]) {
            assert!(
                Transcript::decode(&bytes[..cut]).is_err(),
                "family {fi}: truncation at {cut} must not decode"
            );
        }
    }
}

#[test]
fn bit_flips_never_decode_or_panic() {
    for fi in 0..FAMILIES.len() {
        let bytes = family_blob(fi, 80 + fi as u64);
        let mut m = Mutator::new(0xf11_u64 + fi as u64);
        for _ in 0..200 {
            let mut bad = bytes.clone();
            let i = m.index(bad.len());
            bad[i] ^= m.bit(8) as u8;
            assert!(
                Transcript::decode(&bad).is_err(),
                "family {fi}: checksum must catch a single-bit flip at {i}"
            );
        }
    }
}

#[test]
fn oversized_section_length_is_rejected_before_allocation() {
    // Header is magic(4) + version(2) + family/prover/transport(3); the
    // first section's length field sits at offset 10. Stamp it to
    // u32::MAX and re-sign so the parser actually reads it: the section
    // cap must reject it as a structured error, not attempt a 4 GiB
    // read or allocation.
    let mut bytes = family_blob(0, 99);
    bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    resign(&mut bytes);
    let err = Transcript::decode(&bytes).expect_err("oversized section must not decode");
    let msg = err.to_string();
    assert!(!msg.is_empty());
}

#[test]
fn resigned_corruptions_are_handled_without_panicking() {
    // Checksum-valid corruption sweep: flips, truncate-and-resign, and
    // 0xff stamps anywhere in the body. Decoding may legitimately
    // succeed (e.g. a flip inside an opaque round payload) — then the
    // corruption must instead be caught or tolerated by replay
    // verification. Nothing may panic.
    for fi in 0..FAMILIES.len() {
        let bytes = family_blob(fi, 120 + fi as u64);
        let mut m = Mutator::new(0x5e51_u64 + fi as u64);
        for round in 0..60u32 {
            let mut bad = bytes.clone();
            match round % 3 {
                0 => {
                    let i = m.index(bad.len() - 8);
                    bad[i] ^= m.bit(8) as u8;
                }
                1 => {
                    let keep = 9 + m.index(bad.len() - 17);
                    bad.truncate(keep + 8);
                }
                _ => {
                    let i = m.index(bad.len().saturating_sub(12));
                    for b in bad.iter_mut().skip(i).take(4) {
                        *b = 0xff;
                    }
                }
            }
            resign(&mut bad);
            if let Ok(t) = Transcript::decode(&bad) {
                // Well-formed after corruption: verification must still
                // run to a verdict (accept, reject, or replay mismatch).
                let _ = t.verify();
            }
        }
    }
}

// --- Frame layer: the length-prefixed envelope the serve front-end ---
// --- speaks. Corruption at this layer must be a structured I/O error --
// --- with a stable fault class, and must never reach the decoder. ------

#[test]
fn framed_transcript_roundtrips_through_the_wire_envelope() {
    let blob = family_blob(0, 210);
    let mut stream = Vec::new();
    write_frame(&mut stream, &blob).expect("frame");
    write_frame(&mut stream, &blob).expect("frame");
    let mut cur = Cursor::new(stream);
    for _ in 0..2 {
        let payload = read_frame(&mut cur).expect("read").expect("frame present");
        assert_eq!(payload, blob);
        let _ = Transcript::decode(&payload).expect("framed blob decodes unchanged").verify();
    }
    assert!(read_frame(&mut cur).expect("read").is_none(), "clean EOF at frame boundary");
}

#[test]
fn half_written_frames_are_truncated_frame_faults_at_every_cut() {
    // A transcript blob cut mid-frame — the envelope, not the decoder,
    // must catch it, and always with the same stable fault class.
    let blob = family_blob(1, 220);
    let mut stream = Vec::new();
    write_frame(&mut stream, &blob).expect("frame");
    let mut m = Mutator::new(0xf8a3);
    for _ in 0..40 {
        let cut = 1 + m.index(stream.len() - 1);
        let err = read_frame(&mut Cursor::new(&stream[..cut]))
            .expect_err("half-written frame must not yield a payload");
        assert_eq!(fault_class(err.kind()), "truncated-frame", "cut at {cut}");
    }
}

#[test]
fn corrupt_length_headers_never_reach_the_transcript_decoder() {
    // Stamp the 4-byte length header with adversarial values: anything
    // beyond the cap is rejected before allocation; anything under it
    // merely truncates/extends the payload, which the checksum catches.
    let blob = family_blob(2, 230);
    let cap = blob.len() + 64;
    let mut m = Mutator::new(0x1e47);
    for _ in 0..60 {
        let mut stream = Vec::new();
        write_frame(&mut stream, &blob).expect("frame");
        let stamp = m.next_u64() as u32;
        stream[..4].copy_from_slice(&stamp.to_le_bytes());
        match read_frame_limited(&mut Cursor::new(&stream), cap) {
            Ok(Some(payload)) => {
                // A shorter declared length re-frames a prefix; the
                // transcript layer must reject it structurally.
                if payload.len() != blob.len() {
                    assert!(Transcript::decode(&payload).is_err(), "stamp {stamp}");
                }
            }
            Ok(None) => panic!("a stamped header is never a clean EOF"),
            Err(e) => {
                let class = fault_class(e.kind());
                assert!(
                    class == "oversized-frame" || class == "truncated-frame",
                    "stamp {stamp}: unexpected class {class}"
                );
            }
        }
    }
}
