//! Interactive-ish exploration of Algorithm 1's decision surface.
//!
//! ```text
//! cargo run --release --example scheduler_explorer
//! ```
//!
//! Prints, for a grid of queue depths and deadline budgets, the
//! `(batch, clock)` pair the PPW-based workload scheduler commits for
//! each benchmark — making the latency/energy trade-off of §III-D
//! visible — then Algorithm 2's two halves: the slowest clock that still
//! meets each deadline (saving power), and what the boost does to a lone
//! busy accelerator as the pool empties out.

use lighttrader::accel::dvfs::static_plan;
use lighttrader::accel::{DeviceProfile, DvfsTable, PowerCondition};
use lighttrader::prelude::*;
use lighttrader::report::TextTable;
use lighttrader::sched::{scale_down_to_deadline, schedule_workload};
use std::time::Duration;

fn main() {
    let profile = DeviceProfile::lighttrader();

    println!("== Algorithm 1: committed (batch @ GHz) by queue depth and deadline ==\n");
    for kind in ModelKind::ALL {
        let plan = static_plan(kind, 1, PowerCondition::Sufficient);
        let table = DvfsTable::evaluation().at_least(plan.point.freq_ghz);
        let mut out = TextTable::new(vec![
            "deadline \\ queue",
            "q=1",
            "q=2",
            "q=4",
            "q=8",
            "q=16",
        ]);
        for deadline_us in [400u64, 620, 1_000, 2_000, 5_000] {
            let mut row = vec![format!("{deadline_us} us")];
            for queued in [1u32, 2, 4, 8, 16] {
                let d = schedule_workload(
                    &profile,
                    kind,
                    queued,
                    Duration::from_micros(deadline_us),
                    55.0,
                    &table,
                );
                row.push(match d {
                    Some(d) => format!("b{} @ {:.1}", d.batch, d.point.freq_ghz),
                    None => "defer".into(),
                });
            }
            out.push_row(row);
        }
        println!("-- {kind} (static floor {:.1} GHz) --", plan.point.freq_ghz);
        println!("{}", out.render());
    }

    println!("== Algorithm 2, saving power: slowest GHz meeting the deadline at batch 1 ==\n");
    let table = DvfsTable::evaluation();
    let mut out = TextTable::new(
        std::iter::once("deadline")
            .chain(ModelKind::ALL.map(ModelKind::name))
            .collect(),
    );
    for deadline_us in [150u64, 200, 300, 400, 620] {
        let deadline = Duration::from_micros(deadline_us);
        let mut row = vec![format!("{deadline_us} us")];
        for kind in ModelKind::ALL {
            let point = scale_down_to_deadline(&profile, kind, 1, deadline, &table);
            let met = profile.t_total(kind, 1, point) <= deadline;
            row.push(format!(
                "{:.1}{}",
                point.freq_ghz,
                if met { "" } else { " (miss)" }
            ));
        }
        out.push_row(row);
    }
    println!("{}", out.render());

    println!("== Algorithm 2: lone-accelerator boost vs pool occupancy ==\n");
    let kind = ModelKind::DeepLob;
    for condition in [PowerCondition::Sufficient, PowerCondition::Limited] {
        let mut out = TextTable::new(vec![
            "#accels",
            "static GHz",
            "lone-boost GHz",
            "service gain",
        ]);
        for n in [2usize, 4, 8, 16] {
            let plan = static_plan(kind, n, condition);
            let reservation = profile
                .idle_power_w(kind)
                .max(profile.power_w(kind, 1, plan.point));
            let budget = condition.accelerator_budget_w();
            let avail = budget - (n as f64 - 1.0) * reservation;
            let boost = DvfsTable::full_range()
                .points()
                .iter()
                .rev()
                .find(|p| profile.power_w(kind, 1, **p) <= avail)
                .copied()
                .unwrap_or(plan.point);
            let t_static = profile.t_infer(kind, 1, plan.point);
            let t_boost = profile.t_infer(kind, 1, boost);
            out.push_row(vec![
                n.to_string(),
                format!("{:.1}", plan.point.freq_ghz),
                format!("{:.1}", boost.freq_ghz.max(plan.point.freq_ghz)),
                format!("{:?} -> {:?}", t_static, t_boost.min(t_static)),
            ]);
        }
        println!("-- {kind}, {condition} --");
        println!("{}", out.render());
    }
}
