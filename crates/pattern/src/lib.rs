//! # gcsm-pattern — query patterns and worst-case-optimal-join plans
//!
//! This crate owns everything about the *query* side of continuous subgraph
//! matching:
//!
//! * [`QueryGraph`] — small connected (optionally labeled) patterns, with
//!   the fixed global edge numbering `R_1..R_m` that the incremental view
//!   maintenance decomposition of Eq. (1) is defined over;
//! * [`queries`] — the evaluation query set Q1–Q6 (sizes 5–7, standing in
//!   for the paper's Fig. 7) and the running example from Fig. 1;
//! * [`motifs`] — enumeration of all connected non-isomorphic graphs of a
//!   given size (the paper's Fig. 11 counts all size-3/4/5 motifs);
//! * [`automorphism`] — automorphism groups and the symmetry-breaking
//!   first-vertex conditions used for unique-subgraph counting;
//! * [`plan`] — compilation of a query into nested-loop matching plans: one
//!   **static** plan (Fig. 2a) and `m` **incremental delta plans**
//!   (Fig. 2b–f), each recording which neighbor view (`N` old / `N'` new)
//!   every set intersection must read, per Eq. (1).

//! ```
//! use gcsm_pattern::{compile_incremental, queries, PlanOptions, ViewSel};
//!
//! // The paper's Fig. 1 kite has five edges ⇒ five delta plans (Fig. 2b–f).
//! let kite = queries::fig1_kite();
//! let plans = compile_incremental(&kite, PlanOptions::default());
//! assert_eq!(plans.len(), 5);
//!
//! // ΔM_1 reads only new views; ΔM_5 reads only old views (Eq. (1)).
//! assert!(plans[0].levels.iter().all(|l| l.constraints.iter().all(|c| c.view == ViewSel::New)));
//! assert!(plans[4].levels.iter().all(|l| l.constraints.iter().all(|c| c.view == ViewSel::Old)));
//! ```

pub mod agm;
pub mod automorphism;
pub mod explain;
pub mod motifs;
pub mod plan;
pub mod queries;
pub mod query;
pub mod validate;

pub use agm::{agm_bound, delta_bound, min_fractional_edge_cover, EdgeCover};
pub use automorphism::{automorphisms, symmetry_break_conditions};
pub use explain::explain_plan;
pub use motifs::connected_motifs;
pub use plan::{
    compile_incremental, compile_incremental_one, compile_incremental_scored, compile_static,
    Constraint, LevelPlan, MatchPlan, PlanOptions, ViewSel,
};
pub use query::{QueryGraph, MAX_PATTERN};
pub use validate::validate_plan;
