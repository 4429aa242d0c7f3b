//! Seeded inputs of every workload, each with the outcome fixed when it
//! was generated.

use pdip_engine::chaos::Mutator;
use pdip_engine::{no_instance, Family, YesInstance, FAMILIES};
use pdip_graph::Graph;
use pdip_protocols::{PopParams, Transport};
use pdip_wire::{Transcript, VerifyOutcome, WireInstance};

/// The verdict a request or verification must come back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The verifier accepts.
    Accept,
    /// The transcript decodes and the verifier rejects.
    Reject,
    /// The blob does not decode.
    Malformed,
}

impl Expect {
    /// The wire status name the server answers with.
    pub fn status_name(self) -> &'static str {
        match self {
            Expect::Accept => "accept",
            Expect::Reject => "reject",
            Expect::Malformed => "malformed",
        }
    }

    /// The expectation a verify outcome meets.
    pub fn of(outcome: &VerifyOutcome) -> Expect {
        match outcome {
            VerifyOutcome::Accepted(_) => Expect::Accept,
            VerifyOutcome::VerifierRejected(_) | VerifyOutcome::ReplayMismatch { .. } => {
                Expect::Reject
            }
        }
    }
}

/// One encoded transcript (or corrupted blob) with its provenance.
#[derive(Debug, Clone)]
pub struct Blob {
    /// Family name of the source instance.
    pub family: &'static str,
    /// Node count of the source instance.
    pub n: usize,
    /// Prover byte: 0 = honest, `k` = cheat strategy `k − 1`.
    pub prover: u8,
    /// The bytes sent to the verifier.
    pub bytes: Vec<u8>,
    /// The outcome fixed at generation.
    pub expect: Expect,
    /// `proof_size()` of the recorded run (0 for a corrupted blob).
    pub proof_bits: usize,
}

/// One unrecorded instance of the prove workload.
pub struct Instance {
    /// Family name.
    pub family: &'static str,
    /// Node count.
    pub n: usize,
    /// Seed the instance was generated from.
    pub gen_seed: u64,
    /// Seed of the protocol run.
    pub run_seed: u64,
    /// The instance.
    pub wire: WireInstance,
}

/// SplitMix64 finalizer: decorrelated sub-seeds from one `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The engine instance in its wire container.
pub fn to_wire(inst: YesInstance) -> WireInstance {
    match inst {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        YesInstance::Op(i) => WireInstance::Op(i),
        YesInstance::Emb(i) => WireInstance::Emb(i),
        YesInstance::Pl(i) => WireInstance::Pl(i),
        YesInstance::Spa(i) => WireInstance::Spa(i),
        YesInstance::Tw2(i) => WireInstance::Tw2(i),
    }
}

/// The graph of a wire instance.
pub fn graph_of(inst: &WireInstance) -> &Graph {
    match inst {
        WireInstance::Pop(i) => &i.graph,
        WireInstance::Op(i) => &i.graph,
        WireInstance::Emb(i) => &i.graph,
        WireInstance::Pl(i) => &i.graph,
        WireInstance::Spa(i) => &i.graph,
        WireInstance::Tw2(i) => &i.graph,
    }
}

/// Records and encodes one run; the expected verdict is the recorded one.
pub fn record_blob(
    inst: WireInstance,
    transport: Transport,
    prover: u8,
    gen: u64,
    run: u64,
) -> Blob {
    let family = inst.family_name();
    let n = inst.n();
    let t = Transcript::record(inst, PopParams::default(), transport, prover, gen, run);
    Blob {
        family,
        n,
        prover,
        expect: if t.accepted { Expect::Accept } else { Expect::Reject },
        proof_bits: t.stats.proof_size(),
        bytes: t.encode(),
    }
}

/// Honest yes-instances of all six families at `n`.
pub fn large_instances(n: usize, seed: u64) -> Vec<Instance> {
    FAMILIES
        .iter()
        .enumerate()
        .map(|(fi, &fam)| {
            let gen_seed = mix(seed, 0x1a00 + fi as u64);
            let wire = to_wire(YesInstance::generate(fam, n, gen_seed));
            Instance { family: fam.name(), n: wire.n(), gen_seed, run_seed: mix(gen_seed, 1), wire }
        })
        .collect()
}

/// Accepting transcripts of all six families at `n`.
pub fn accept_blobs(n: usize, seed: u64) -> Vec<Blob> {
    large_instances(n, seed)
        .into_iter()
        .map(|i| record_blob(i.wire, Transport::Native, 0, i.gen_seed, i.run_seed))
        .collect()
}

/// No-instances of all six families at about `n`: the rejecting
/// transcript of every cheat strategy, plus the honest prover's.
pub fn reject_blobs(n: usize, seed: u64) -> Vec<Blob> {
    let mut out = Vec::new();
    for (fi, &fam) in FAMILIES.iter().enumerate() {
        out.extend(reject_blobs_of(fam, n, mix(seed, 0x2b00 + fi as u64)));
    }
    out
}

/// [`reject_blobs`] of one family.
pub fn reject_blobs_of(fam: Family, n: usize, gen_seed: u64) -> Vec<Blob> {
    let inst = to_wire(no_instance(fam, n, gen_seed));
    (0..=inst.cheat_count())
        .map(|prover| {
            let run = mix(gen_seed, 0x100 + prover as u64);
            record_blob(inst.clone(), Transport::Native, prover as u8, gen_seed, run)
        })
        .collect()
}

/// The served mix: about 70% honest transcripts of the six families at
/// n ∈ {16, 48}, 20% cheat transcripts on no-instances at n = 32, and
/// 10% blobs corrupted with the E12 chaos mutator (bit flips,
/// truncations, and oversized length fields).
pub fn serve_mix(seed: u64) -> Vec<Blob> {
    let mut honest = Vec::new();
    for (fi, &fam) in FAMILIES.iter().enumerate() {
        for n in [16usize, 48] {
            for trial in 0..6u64 {
                let gen = mix(seed, 0x3c00 + (fi as u64) * 64 + n as u64 + trial * 1000);
                let inst = to_wire(YesInstance::generate(fam, n, gen));
                honest.push(record_blob(inst, Transport::Simulated, 0, gen, mix(gen, 2)));
            }
        }
    }
    let mut cheats = Vec::new();
    let mut round = 0u64;
    while cheats.len() < 21 {
        for (fi, &fam) in FAMILIES.iter().enumerate() {
            let gen = mix(seed, 0x4d00 + fi as u64 + round * 64);
            let inst = to_wire(no_instance(fam, 32, gen));
            for k in 0..inst.cheat_count() {
                if cheats.len() < 21 {
                    let run = mix(gen, 0x200 + k as u64);
                    cheats.push(record_blob(
                        inst.clone(),
                        Transport::Simulated,
                        k as u8 + 1,
                        gen,
                        run,
                    ));
                }
            }
        }
        round += 1;
    }
    let mut corrupt = Vec::new();
    for k in 0..10u64 {
        let mut m = Mutator::new(mix(seed, 0x5e00 + k));
        let src = &honest[m.index(honest.len())];
        let mut bad = src.bytes.clone();
        match k % 3 {
            0 => {
                let i = m.index(bad.len());
                bad[i] ^= m.bit(8) as u8;
            }
            1 => bad.truncate(m.index(bad.len())),
            _ => {
                let i = m.index(bad.len().saturating_sub(4).max(1));
                for b in bad.iter_mut().skip(i).take(4) {
                    *b = 0xff;
                }
            }
        }
        // The outcome is fixed here, from the library, before any request
        // is sent.
        let expect = match Transcript::decode(&bad) {
            Err(_) => Expect::Malformed,
            Ok(t) => Expect::of(&t.verify()),
        };
        corrupt.push(Blob { bytes: bad, expect, proof_bits: 0, prover: src.prover, ..src.clone() });
    }
    honest.into_iter().chain(cheats).chain(corrupt).collect()
}
