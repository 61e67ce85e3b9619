//! Property tests for the two scheduling algorithms.

use lt_accel::dvfs::{DvfsTable, OperatingPoint};
use lt_accel::DeviceProfile;
use lt_dnn::ModelKind;
use lt_sched::{plan_uprates, scale_down_to_deadline, schedule_workload};
use proptest::prelude::*;
use std::time::Duration;

fn kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::VanillaCnn),
        Just(ModelKind::TransLob),
        Just(ModelKind::DeepLob),
    ]
}

proptest! {
    /// Every committed decision satisfies both of Algorithm 1's
    /// constraints and is PPW-optimal over the candidate grid.
    #[test]
    fn algorithm1_commitments_are_feasible_and_optimal(
        kind in kind_strategy(),
        queued in 1u32..40,
        t_avail_us in 50u64..10_000,
        power_avail in 0.5f64..55.0,
    ) {
        let profile = DeviceProfile::lighttrader();
        let table = DvfsTable::evaluation();
        let t_avail = Duration::from_micros(t_avail_us);
        if let Some(d) = schedule_workload(&profile, kind, queued, t_avail, power_avail, &table) {
            prop_assert!(d.t_total <= t_avail);
            prop_assert!(d.power_w <= power_avail);
            prop_assert!(d.batch >= 1 && d.batch <= queued.min(lt_sched::MAX_BATCH));
            // Optimality over the full candidate grid.
            for &point in table.points() {
                for batch in 1..=queued.min(lt_sched::MAX_BATCH) {
                    let t = profile.t_total(kind, batch, point);
                    let w = profile.power_w(kind, batch, point);
                    if t <= t_avail && w <= power_avail {
                        prop_assert!(
                            profile.ppw(kind, batch, point) <= d.ppw + 1e-9,
                            "missed candidate b{} @ {}", batch, point
                        );
                    }
                }
            }
        } else {
            // None means genuinely no feasible candidate at batch 1.
            for &point in table.points() {
                let t = profile.t_total(kind, 1, point);
                let w = profile.power_w(kind, 1, point);
                prop_assert!(
                    t > t_avail || w > power_avail,
                    "feasible b1 @ {} was rejected", point
                );
            }
        }
    }

    /// Scale-down never violates the deadline when any point can meet it,
    /// and always returns the slowest such point.
    #[test]
    fn scale_down_is_slowest_feasible(
        kind in kind_strategy(),
        batch in 1u32..8,
        t_avail_us in 50u64..20_000,
    ) {
        let profile = DeviceProfile::lighttrader();
        let table = DvfsTable::evaluation();
        let t_avail = Duration::from_micros(t_avail_us);
        let point = scale_down_to_deadline(&profile, kind, batch, t_avail, &table);
        let feasible_at = |p: OperatingPoint| profile.t_total(kind, batch, p) <= t_avail;
        if feasible_at(table.max()) {
            prop_assert!(feasible_at(point));
            let slower = table.points().iter().filter(|p| p.freq_ghz < point.freq_ghz);
            for &down in slower {
                prop_assert!(!feasible_at(down), "a slower feasible point exists");
            }
        } else {
            prop_assert!((point.freq_ghz - table.max().freq_ghz).abs() < 1e-9);
        }
    }

    /// The committed batch size is monotone non-decreasing in queue
    /// depth: more queued tensors never make Algorithm 1 batch *less*.
    /// (The candidate grid at a deeper queue is a superset of the
    /// shallower one, enumerated in the same order with the same
    /// first-wins tie-break — the property the cross-symbol coalesced
    /// queue relies on: merging shards can only grow batches.)
    #[test]
    fn algorithm1_batch_is_monotone_in_queue_depth(
        kind in kind_strategy(),
        queued in 1u32..40,
        t_avail_us in 50u64..10_000,
        power_avail in 0.5f64..55.0,
    ) {
        let profile = DeviceProfile::lighttrader();
        let table = DvfsTable::evaluation();
        let t_avail = Duration::from_micros(t_avail_us);
        let decide = |q: u32| schedule_workload(&profile, kind, q, t_avail, power_avail, &table);
        let shallow = decide(queued);
        let deep = decide(queued + 1);
        match (shallow, deep) {
            (Some(a), Some(b)) => prop_assert!(
                b.batch >= a.batch,
                "queue {} -> batch {}, queue {} -> batch {}",
                queued, a.batch, queued + 1, b.batch
            ),
            (Some(_), None) => prop_assert!(false, "deeper queue lost feasibility"),
            _ => {}
        }
    }

    /// Beyond MAX_BATCH queued tensors the decision saturates: queue
    /// depth stops influencing the commitment entirely.
    #[test]
    fn algorithm1_saturates_at_max_batch(
        kind in kind_strategy(),
        extra in 0u32..64,
        t_avail_us in 50u64..10_000,
        power_avail in 0.5f64..55.0,
    ) {
        let profile = DeviceProfile::lighttrader();
        let table = DvfsTable::evaluation();
        let t_avail = Duration::from_micros(t_avail_us);
        let at_cap = schedule_workload(
            &profile, kind, lt_sched::MAX_BATCH, t_avail, power_avail, &table);
        let beyond = schedule_workload(
            &profile, kind, lt_sched::MAX_BATCH + extra, t_avail, power_avail, &table);
        match (at_cap, beyond) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.batch, b.batch);
                prop_assert!((a.point.freq_ghz - b.point.freq_ghz).abs() < 1e-12);
            }
            (None, None) => {}
            _ => prop_assert!(false, "feasibility flipped past MAX_BATCH"),
        }
    }

    /// Redistribution — `plan_uprates`, the loop `SimState::rebalance`
    /// runs — never exceeds the pool budget, never downgrades a busy
    /// slot, never touches an idle one, and stops only when no single
    /// notch fits.
    #[test]
    fn redistribution_is_budget_safe_and_monotone(
        kind in kind_strategy(),
        n in 1usize..8,
        busy_mask in 0u32..256,
        batch in 1u32..8,
        start_tenths in 8u64..20,
        idle_w in 0.0f64..2.0,
        budget in 5.0f64..55.0,
    ) {
        let profile = DeviceProfile::lighttrader();
        let table = DvfsTable::evaluation();
        let start = OperatingPoint::at_freq(start_tenths as f64 / 10.0);
        let before: Vec<Option<(u32, OperatingPoint)>> = (0..n)
            .map(|aid| (busy_mask >> aid & 1 == 1).then_some((batch, start)))
            .collect();
        let pool_w = |plan: &[Option<(u32, OperatingPoint)>]| -> f64 {
            plan.iter()
                .map(|d| d.map_or(idle_w, |(b, pt)| profile.power_w(kind, b, pt)))
                .sum()
        };
        let initial = pool_w(&before);
        let mut after = before.clone();
        plan_uprates(&profile, kind, idle_w, budget, &table, &mut after);
        let total = pool_w(&after);
        // Budget respected unless it was already blown at entry.
        if initial <= budget {
            prop_assert!(total <= budget + 1e-9, "total {total} > budget {budget}");
        }
        for (b, a) in before.iter().zip(&after) {
            match (b, a) {
                (None, None) => {}
                (Some((b_batch, b_pt)), Some((a_batch, a_pt))) => {
                    prop_assert_eq!(b_batch, a_batch);
                    // Monotone: points never go down.
                    prop_assert!(a_pt.freq_ghz >= b_pt.freq_ghz - 1e-12);
                    // Maximal: the next notch of any busy slot overshoots.
                    if let Some(up) = table.step_up(*a_pt) {
                        let inc = profile.power_w(kind, *a_batch, up)
                            - profile.power_w(kind, *a_batch, *a_pt);
                        prop_assert!(inc > budget - total, "a notch still fits");
                    }
                }
                _ => prop_assert!(false, "a slot changed between busy and idle"),
            }
        }
    }
}
