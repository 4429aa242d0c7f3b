//! `pdip-wire`: the versioned binary wire format for DIP runs.
//!
//! A `.transcript` blob serializes one full protocol run — the bound
//! instance, the prover identity (honest or a named cheat strategy), the
//! run seed, the captured per-node label rounds, and the stored outcome —
//! in a dependency-free little-endian container with a checksum trailer
//! (see [`format`](mod@format) for the framing and DESIGN.md §5 for the field-by-field
//! layout and compatibility policy).
//!
//! Decoding is hardened: every length field is checked against a hard cap
//! and the bytes actually present before anything is allocated, and all
//! indices (edge endpoints, witness nodes, rotation orders) are validated
//! before the protocol layer may index with them. Malformed input yields a
//! structured [`WireError`], never a panic.
//!
//! Verification is *replay*: protocols are pure functions of
//! `(instance, prover, seed)`, so [`Transcript::verify`] re-runs the
//! protocol under a capture scope and byte-compares the emitted rounds
//! against the stored ones before trusting the verdict.

#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod frame;
pub mod transcript;

pub use codec::{decode_rho, encode_rho, is_connected, Decode, Encode};
pub use format::{fnv1a64, Reader, WireError, Writer, FORMAT_VERSION, MAGIC};
pub use frame::{
    fault, fault_class, read_frame, read_frame_deadline, read_frame_limited, write_frame,
    DEFAULT_MAX_FRAME_BYTES,
};
/// The former name of [`pdip_protocols::Instance`], kept because the
/// benchmark harness under `perfbench/` imports it.
pub use pdip_protocols::Instance as WireInstance;
pub use transcript::{Transcript, VerifyOutcome};
