//! The proactive scheduler: the paper's core algorithmic contribution.
//!
//! §III-D defines two cooperating schedulers driven by the
//! performance-per-watt metric `PPW = batch / (latency · power)`:
//!
//! * **Algorithm 1 — workload scheduling** ([`workload`]): whenever an
//!   accelerator can issue, enumerate every `(dvfs, batch)` pair, keep
//!   those whose `t_infer + t_trans` fits the available time and whose
//!   power fits the available budget, and commit the highest-PPW
//!   candidate; if none fits, defer the oldest input tensor to the
//!   conventional pipeline.
//! * **Algorithm 2 — DVFS power distribution** ([`power_dist`]): first
//!   scale every accelerator down to the slowest point that still meets
//!   the deadline (saving power), then greedily hand the freed budget to
//!   the busy accelerator with the highest marginal PPW gain until no
//!   upgrade fits. One function per half: [`scale_down_to_deadline`] and
//!   [`plan_uprates`]. The simulator runs only the second
//!   (`SimState::rebalance`): it never under-clocks below the static
//!   plan, so nothing in `lt-sim` calls `scale_down_to_deadline`; the
//!   `scheduler_explorer` example prints its choices.
//!
//! [`Policy`] selects which of the two run, matching the four
//! configurations of the paper's Fig. 13 (baseline, WS, DS, WS+DS).
//!
//! Beyond the paper, [`tier`] adds a third axis: deadline-aware model
//! *tier* selection (anytime inference). A [`TierPlanner`] picks the
//! largest model whose predicted queue-wait + inference time fits each
//! query's remaining deadline budget, degrading to cheaper tiers — or
//! dropping — under burst storms, with predictions from the online
//! [`LatencyModel`].

#![forbid(unsafe_code)]

pub mod policy;
pub mod power_dist;
pub mod tier;
pub mod workload;

pub use policy::Policy;
pub use power_dist::{plan_uprates, scale_down_to_deadline};
pub use tier::{
    EwmaEstimator, LatencyModel, QuantileEstimator, TierDecision, TierLadder, TierPlanner,
};
pub use workload::{schedule_workload, WorkloadDecision, MAX_BATCH};
