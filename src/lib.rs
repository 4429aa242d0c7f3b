//! `planarity-dip` — a Rust reproduction of Gil & Parter, *"New
//! Distributed Interactive Proofs for Planarity: A Matter of Left and
//! Right"* (PODC 2025).
//!
//! This facade crate re-exports the workspace: the graph substrate
//! ([`graph`]), prime-field machinery ([`field`]), the DIP model
//! ([`dip`]) and every protocol of the paper ([`protocols`]). See the
//! README for a tour and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ```
//! use planarity_dip::protocols::{PathOuterplanarity, PopInstance, PopParams, Transport};
//! use planarity_dip::graph::gen::outerplanar::random_path_outerplanar;
//! use pdip_obs::NoopRecorder;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let gen = random_path_outerplanar(64, 0.6, &mut rng);
//! let inst = PopInstance { graph: gen.graph, witness: Some(gen.path), is_yes: true };
//! let proto = PathOuterplanarity::new(&inst, PopParams::default(), Transport::Native);
//! let run = proto.run(None, 7, &NoopRecorder);
//! assert!(run.accepted());
//! assert_eq!(run.stats.rounds, 5);
//! ```

#![warn(missing_docs)]

pub use pdip_core as dip;
pub use pdip_field as field;
pub use pdip_graph as graph;
pub use pdip_protocols as protocols;
pub use pdip_wire as wire;
