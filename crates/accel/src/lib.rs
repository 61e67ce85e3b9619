//! The profiled AI-accelerator model.
//!
//! The paper's accelerator is a 7 nm ASIC (Table I: 0.68–1.16 V, up to
//! 2.2 GHz, up to 10.8 W) built around a Coarse-Grained Reconfigurable
//! Array with a custom chip-to-chip link to the host FPGA (§III-C).
//! Silicon obviously cannot be reproduced; this crate substitutes it the
//! way the paper itself evaluates (it profiles the hardware once, then
//! drives a back-test simulator from the profiles, §IV-A): [`latency`]
//! and [`power`] are analytic models calibrated to the paper's anchors
//! (batch-1 latencies of Fig. 11a, the Table I power envelope, and the
//! Table III frequency grid, which [`dvfs::static_plan`] reproduces
//! cell-for-cell); [`c2c`] prices the tensor transfers over the link and
//! carries the Interlaken-style baseline of the 2.4x bandwidth claim
//! (Fig. 9); [`profile::DeviceProfile`] packages them into the
//! `(latency, power, PPW)` lookup the scheduler consumes. There is no
//! functional or cycle-level model of the array: nothing the simulator,
//! the tables or the benchmark runs would read one.
//!
//! [`device::Accelerator`] is the per-chip DVFS state (operating point,
//! PMIC switching delay and dwell) that the discrete-event simulator
//! drives; the simulator's batch in flight is its one record of what a
//! chip runs.

#![forbid(unsafe_code)]

pub mod c2c;
pub mod device;
pub mod dvfs;
pub mod latency;
pub mod power;
pub mod profile;

pub use device::Accelerator;
pub use dvfs::{static_plan, AccelSpec, DvfsTable, OperatingPoint, StaticPlan};
pub use latency::LatencyModel;
pub use power::{PowerCondition, PowerModel};
pub use profile::DeviceProfile;
