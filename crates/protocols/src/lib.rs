//! All distributed interactive proofs of Gil & Parter, *"New Distributed
//! Interactive Proofs for Planarity: A Matter of Left and Right"*
//! (PODC 2025), implemented on the `pdip-core` DIP runtime and the
//! `pdip-graph` substrate.
//!
//! Building blocks (Lemmas 2.3–2.6): [`forest_code`], [`edge_labels`],
//! [`spanning_tree`], [`multiset_eq`]. The core contribution is the
//! 5-round [`lr_sorting`] protocol with O(log log n)-bit proofs
//! (Lemma 4.1/4.2), from which the family protocols derive.

#![warn(missing_docs)]
// Parallel-array index loops are idiomatic throughout this codebase.
#![allow(clippy::needless_range_loop)]

pub mod amplify;
pub mod edge_labels;
pub mod embedded_planarity;
pub mod family;
pub mod forest_code;
pub mod lower_bound;
pub mod lr_sorting;
pub mod multiset_eq;
pub mod nesting;
pub mod outerplanar;
pub mod path_outerplanar;
pub mod planarity;
pub mod pls_baseline;
pub mod replay;
pub mod series_parallel;
pub mod sharded;
pub mod spanning_tree;
pub mod treewidth2;

pub use amplify::Amplified;
pub use edge_labels::EdgeLabelCarrier;
pub use embedded_planarity::{
    build_reduction, EmbCheat, EmbInstance, EmbeddedPlanarity, Reduction, EMB_CHEATS,
};
pub use family::{no_instance, no_instance_with, Family, Instance, FAMILIES};
pub use forest_code::{decode_children, decode_parent, ForestCode, ForestCodeLabel};
pub use lr_sorting::{LrCheat, LrParams, LrSorting, Transport, LR_CHEATS};
pub use multiset_eq::{MsMsg, MultisetEq};
pub use outerplanar::{OpCheat, OpInstance, Outerplanarity, OP_CHEATS};
pub use path_outerplanar::{PathOuterplanarity, PopCheat, PopInstance, PopParams, POP_CHEATS};
pub use planarity::{PlCheat, PlInstance, Planarity, PL_CHEATS};
pub use replay::{capture_run, diff_transcripts, replay_verify, ReplayOutcome};
pub use series_parallel::{SeriesParallel, SpaCheat, SpaInstance, SPA_CHEATS};
pub use sharded::{BlockShard, ShardCombiner, ShardPlan};
pub use spanning_tree::{SpanningTreeVerification, StCoin, StMsg, StParams};
pub use treewidth2::{Treewidth2, Tw2Cheat, Tw2Instance, TW2_CHEATS};
