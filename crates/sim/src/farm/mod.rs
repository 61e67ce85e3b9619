//! The back-test farm: declarative grids, shared-trace caching, and a
//! work-stealing runner with one scalar result row per cell.
//!
//! The paper's evaluation is a grid — 3 models × accelerator counts ×
//! 2 power conditions × 4 policies × seeds — and every result axis the
//! simulator has grown since (fault profiles, symbol counts, deadline
//! schemes) multiplies it. The farm makes that grid the unit of work:
//!
//! ```text
//!   SweepGrid ──expand──▶ [FarmCell]          (config, session spec)+id
//!       │                     │
//!       │              distinct specs
//!       ▼                     ▼
//!   TraceCache ◀──build once── phase 1        (lt-feed, Arc'd sessions)
//!       │
//!       ▼
//!   FarmRunner ──scatter──▶ worker pool       work-stealing over cells,
//!       │                                     disjoint result slots
//!       ▼
//!   FarmResults ◀──merge in expansion order── one CellSummary row per cell
//! ```
//!
//! Correctness is pinned by construction and by test: each cell replays
//! an immutable session through the same serial engine as
//! [`crate::run_lighttrader`], so farm results are bit-identical to
//! serial runs per cell at any worker count, and reruns are
//! byte-identical.

mod grid;
mod pool;
mod results;
mod runner;

pub use grid::{FarmCell, GridDeadline, SweepGrid};
pub use results::{CellSummary, FarmResults};
pub use runner::{CellFailure, FarmFailures, FarmRunner};
