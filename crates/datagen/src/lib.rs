//! # gcsm-datagen — datasets and update streams
//!
//! The paper evaluates on five SNAP graphs (Amazon, RoadNetPA, RoadNetCA,
//! LiveJournal, Friendster) and two LDBC Graphalytics graphs (SF3K, SF10K) —
//! up to 18.8 B edges (Table I). Neither the data nor that scale is
//! available here, so this crate generates *synthetic stand-ins with the
//! same shape* at configurable scale (DESIGN.md §2):
//!
//! * [`rmat`] — R-MAT generator for the skewed social/web-like graphs
//!   (AZ, LJ, FR, SF3K, SF10K); degree skew matches the regime that makes
//!   the paper's caching effective;
//! * [`road`] — near-planar lattice with perturbations for the road
//!   networks (max degree ≤ 12; the regime where skew is absent and
//!   Fig. 11 shows caching still helps because matching is batch-local);
//! * [`er`] — Erdős–Rényi, for tests;
//! * [`presets`] — the seven Table-I datasets with a global scale knob;
//! * [`stream`] — the paper's update-stream protocol (Sec. VI-A): sample
//!   edges, mark insert/delete with equal probability, remove
//!   insert-marked edges from the initial graph, and batch the stream.

pub mod er;
pub mod presets;
pub mod rmat;
pub mod road;
pub mod social;
pub mod stream;
pub mod temporal;

pub use presets::{all_presets, Dataset, Preset};
pub use stream::{StreamConfig, UpdateStream};
