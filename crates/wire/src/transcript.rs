//! The versioned `.transcript` container: one full DIP run on disk.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "PDIP" | version u16 | family u8 | prover u8 | transport u8
//! section 1 META    | section 2 INSTANCE | section 3 ROUNDS
//! section 4 STATS   | section 5 VERDICT  | fnv1a64 trailer u64
//! ```
//!
//! `family` tags the Theorem 1.2–1.7 protocol ([`Family::tag`]:
//! 1 = path-outerplanarity … 6 = treewidth-2), `prover` is 0 for the
//! honest prover and `k` for cheat strategy `k − 1`, `transport` is 0
//! native / 1 simulated. META carries the protocol parameters and the
//! run seed; INSTANCE the decoded-and-validated instance; ROUNDS the
//! captured per-node label rounds (the same bit accounting the E10 trace
//! audit sees); STATS and VERDICT the stored size accounting and
//! outcome, which [`Transcript::verify`] cross-checks against the
//! replay.

use crate::codec::{
    decode_connected_graph, decode_rho, decode_witness, encode_rho, encode_witness, Decode, Encode,
};
use crate::format::{checked_payload, Reader, WireError, Writer, FORMAT_VERSION, MAGIC};
use pdip_core::{CapturedTranscript, DipProtocol, RunResult, SizeStats};
use pdip_protocols::{
    replay_verify, EmbInstance, Family, Instance, OpInstance, PlInstance, PopInstance, PopParams,
    ReplayOutcome, SpaInstance, Transport, Tw2Instance,
};

/// Section tags, in file order.
mod section {
    pub const META: u8 = 1;
    pub const INSTANCE: u8 = 2;
    pub const ROUNDS: u8 = 3;
    pub const STATS: u8 = 4;
    pub const VERDICT: u8 = 5;
}

/// A serialized DIP run: instance, prover identity, seeds, captured
/// rounds, and the stored outcome.
#[derive(Debug, Clone)]
pub struct Transcript {
    /// Prover identity: 0 = honest, `k` = cheat strategy `k − 1`.
    pub prover: u8,
    /// Edge-label transport: 0 = native, 1 = simulated.
    pub transport: u8,
    /// Soundness exponent `c` of [`PopParams`].
    pub params_c: u32,
    /// Spanning-tree repetitions of [`PopParams`].
    pub params_st_reps: u32,
    /// Seed the instance was generated from (provenance only).
    pub gen_seed: u64,
    /// Seed of the run: the verifier's public coins derive from it.
    pub run_seed: u64,
    /// The bound instance.
    pub instance: Instance,
    /// The captured per-node label rounds.
    pub rounds: CapturedTranscript,
    /// Stored size accounting of the run.
    pub stats: SizeStats,
    /// Stored verdict: true = accepted.
    pub accepted: bool,
}

/// The outcome of [`Transcript::verify`].
#[derive(Debug, Clone)]
pub enum VerifyOutcome {
    /// Replay matched byte-for-byte and the verifier accepts.
    Accepted(RunResult),
    /// Replay matched byte-for-byte and the verifier rejects (the
    /// transcript honestly records a rejecting run).
    VerifierRejected(RunResult),
    /// The stored rounds, stats, or verdict do not match the
    /// deterministic replay: the transcript was not produced by the
    /// claimed `(instance, prover, seed)`.
    ReplayMismatch {
        /// First divergence found.
        detail: String,
    },
}

impl Transcript {
    /// The [`PopParams`] stored in META.
    pub fn params(&self) -> PopParams {
        PopParams { c: self.params_c, st_repetitions: self.params_st_reps as usize }
    }

    /// The stored transport.
    pub fn transport_kind(&self) -> Transport {
        if self.transport == 0 {
            Transport::Native
        } else {
            Transport::Simulated
        }
    }

    /// The stored cheat-strategy index (`None` = honest prover).
    pub fn cheat(&self) -> Option<usize> {
        if self.prover == 0 {
            None
        } else {
            Some(self.prover as usize - 1)
        }
    }

    /// Binds the stored instance to its protocol and calls `f`.
    pub fn with_protocol<R>(&self, f: impl FnOnce(&dyn DipProtocol) -> R) -> R {
        self.instance.with_protocol(self.params(), self.transport_kind(), f)
    }

    /// Runs the protocol on `instance` with the given prover and seed
    /// under a capture scope, producing the transcript to serialize.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        instance: Instance,
        params: PopParams,
        transport: Transport,
        prover: u8,
        gen_seed: u64,
        run_seed: u64,
    ) -> Self {
        let mut t = Transcript {
            prover,
            transport: match transport {
                Transport::Native => 0,
                Transport::Simulated => 1,
            },
            params_c: params.c,
            params_st_reps: params.st_repetitions as u32,
            gen_seed,
            run_seed,
            instance,
            rounds: CapturedTranscript { rounds: Vec::new() },
            stats: SizeStats::default(),
            accepted: false,
        };
        let cheat = t.cheat();
        let (res, rounds) = t.with_protocol(|p| pdip_protocols::capture_run(p, cheat, run_seed));
        t.rounds = rounds;
        t.stats = res.stats.clone();
        t.accepted = res.accepted();
        t
    }

    /// Serializes into a finished, checksummed blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u8(self.instance.family().tag());
        w.put_u8(self.prover);
        w.put_u8(self.transport);

        let mut meta = Writer::new();
        meta.put_u32(self.params_c);
        meta.put_u32(self.params_st_reps);
        meta.put_usize(self.instance.n());
        meta.put_u64(self.gen_seed);
        meta.put_u64(self.run_seed);
        w.put_section(section::META, &meta.into_bytes());

        let mut inst = Writer::new();
        self.instance.graph().encode(&mut inst);
        inst.put_bool(self.instance.is_yes());
        match &self.instance {
            Instance::Pop(i) => encode_witness(&mut inst, &i.witness),
            Instance::Emb(i) => encode_rho(&mut inst, &i.graph, &i.rho),
            Instance::Pl(i) => match &i.witness_rho {
                None => inst.put_bool(false),
                Some(rho) => {
                    inst.put_bool(true);
                    encode_rho(&mut inst, &i.graph, rho);
                }
            },
            Instance::Op(_) | Instance::Spa(_) | Instance::Tw2(_) => {}
        }
        w.put_section(section::INSTANCE, &inst.into_bytes());

        let mut rounds = Writer::new();
        self.rounds.encode(&mut rounds);
        w.put_section(section::ROUNDS, &rounds.into_bytes());

        let mut stats = Writer::new();
        self.stats.encode(&mut stats);
        w.put_section(section::STATS, &stats.into_bytes());

        let mut verdict = Writer::new();
        verdict.put_bool(self.accepted);
        w.put_section(section::VERDICT, &verdict.into_bytes());

        w.finish()
    }

    /// Parses and validates a blob. Every malformed input — truncation,
    /// bit flips, oversized lengths, out-of-range indices — yields a
    /// structured [`WireError`]; decoding never panics.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let payload = checked_payload(data)?;
        let mut r = Reader::new(payload);
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let tag = r.u8()?;
        let family = Family::from_tag(tag)
            .ok_or_else(|| WireError::Invalid(format!("unknown family tag {tag}")))?;
        let prover = r.u8()?;
        let transport = r.u8()?;
        if transport > 1 {
            return Err(WireError::Invalid(format!("unknown transport {transport}")));
        }

        let mut meta = r.section(section::META)?;
        let params_c = meta.u32()?;
        let params_st_reps = meta.u32()?;
        if params_c == 0 || params_st_reps == 0 {
            return Err(WireError::Invalid("zero protocol parameter".into()));
        }
        let declared_n = meta.u64()?;
        let gen_seed = meta.u64()?;
        let run_seed = meta.u64()?;

        let mut inst = r.section(section::INSTANCE)?;
        let graph = decode_connected_graph(&mut inst)?;
        let is_yes = inst.bool()?;
        let instance = match family {
            Family::PathOuterplanar => {
                let witness = decode_witness(&mut inst, graph.n())?;
                Instance::Pop(PopInstance { graph, witness, is_yes })
            }
            Family::Outerplanar => Instance::Op(OpInstance { graph, is_yes }),
            Family::EmbeddedPlanarity => {
                let rho = decode_rho(&mut inst, &graph)?;
                Instance::Emb(EmbInstance { graph, rho, is_yes })
            }
            Family::Planarity => {
                let witness_rho =
                    if inst.bool()? { Some(decode_rho(&mut inst, &graph)?) } else { None };
                Instance::Pl(PlInstance { graph, witness_rho, is_yes })
            }
            Family::SeriesParallel => Instance::Spa(SpaInstance { graph, is_yes }),
            Family::Treewidth2 => Instance::Tw2(Tw2Instance { graph, is_yes }),
        };
        if !inst.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes in instance section".into()));
        }
        if declared_n != instance.n() as u64 {
            return Err(WireError::Invalid(format!(
                "declared n={declared_n} but instance has {} nodes",
                instance.n()
            )));
        }
        if prover as usize > instance.cheat_count() {
            return Err(WireError::Invalid(format!(
                "prover {prover} out of range ({} cheat strategies)",
                instance.cheat_count()
            )));
        }

        let mut rounds_r = r.section(section::ROUNDS)?;
        let rounds = CapturedTranscript::decode(&mut rounds_r)?;
        if !rounds_r.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes in rounds section".into()));
        }

        let mut stats_r = r.section(section::STATS)?;
        let stats = SizeStats::decode(&mut stats_r)?;
        if !stats_r.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes in stats section".into()));
        }

        let mut verdict_r = r.section(section::VERDICT)?;
        let accepted = verdict_r.bool()?;
        if !verdict_r.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes in verdict section".into()));
        }
        if !r.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes after last section".into()));
        }

        Ok(Transcript {
            prover,
            transport,
            params_c,
            params_st_reps,
            gen_seed,
            run_seed,
            instance,
            rounds,
            stats,
            accepted,
        })
    }

    /// Replay-verifies the stored run: re-runs the protocol with the
    /// stored `(instance, prover, seed)` under capture, byte-compares
    /// the emitted rounds against the stored ones, and cross-checks the
    /// stored stats and verdict against the replay.
    pub fn verify(&self) -> VerifyOutcome {
        let cheat = self.cheat();
        let outcome = self.with_protocol(|p| replay_verify(p, cheat, self.run_seed, &self.rounds));
        match outcome {
            ReplayOutcome::Mismatch { detail } => VerifyOutcome::ReplayMismatch { detail },
            ReplayOutcome::Verdict(res) => {
                if res.accepted() != self.accepted {
                    return VerifyOutcome::ReplayMismatch {
                        detail: format!(
                            "stored verdict {} but replay {}",
                            if self.accepted { "accept" } else { "reject" },
                            if res.accepted() { "accepts" } else { "rejects" }
                        ),
                    };
                }
                if res.stats != self.stats {
                    return VerifyOutcome::ReplayMismatch {
                        detail: "stored size stats differ from replayed stats".into(),
                    };
                }
                if res.accepted() {
                    VerifyOutcome::Accepted(res)
                } else {
                    VerifyOutcome::VerifierRejected(res)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::Graph;

    fn pop_transcript(seed: u64) -> Transcript {
        let n = 20;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)));
        let inst =
            Instance::Pop(PopInstance { graph: g, witness: Some((0..n).collect()), is_yes: true });
        Transcript::record(inst, PopParams::default(), Transport::Simulated, 0, 1, seed)
    }

    #[test]
    fn encode_decode_roundtrip_bytes() {
        let t = pop_transcript(11);
        let bytes = t.encode();
        let back = Transcript::decode(&bytes).expect("decode");
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
        assert_eq!(back.instance.family(), Family::PathOuterplanar);
        assert_eq!(back.run_seed, 11);
        assert!(back.accepted);
    }

    #[test]
    fn verify_accepts_honest_transcript() {
        let t = pop_transcript(12);
        match t.verify() {
            VerifyOutcome::Accepted(_) => {}
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn tampered_verdict_is_replay_mismatch() {
        let mut t = pop_transcript(13);
        t.accepted = false;
        match t.verify() {
            VerifyOutcome::ReplayMismatch { .. } => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_round_is_replay_mismatch() {
        let mut t = pop_transcript(14);
        let last = t.rounds.rounds.len() - 1;
        if let Some(b) = t.rounds.rounds[last].payload.first_mut() {
            *b ^= 0x11;
        }
        match t.verify() {
            VerifyOutcome::ReplayMismatch { .. } => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bitflips() {
        let bytes = pop_transcript(15).encode();
        for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(Transcript::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for i in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Transcript::decode(&bad).is_err(), "bit flip at {i} must not decode");
        }
    }
}
