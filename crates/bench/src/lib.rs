//! The experiment registry and the timing harness behind it.
//!
//! [`exp`] holds one entry per committed artifact under `results/` —
//! the paper's E1–E8, the system audits E9–E14 and the three bench
//! snapshots — each with the one generator that produces it; `pdip exp
//! <id>` runs them. The bench snapshots ([`hotpath`], [`graphbench`],
//! [`roundbench`]) share one timer, entry type, renderer and parser in
//! [`snapshot`].

pub mod exp;
pub mod graphbench;
pub mod hotpath;
pub mod roundbench;
pub mod snapshot;
