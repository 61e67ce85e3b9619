//! The LightTrader benchmark: five workloads measured end to end
//! through the facade, and layer by layer from outside the program.
//! `README.md` beside this crate's manifest says what is measured and
//! why.

pub mod compare;
pub mod harness;
pub mod inputs;
pub mod layers;
pub mod manifest;
pub mod report;
pub mod trace;
pub mod workloads;
