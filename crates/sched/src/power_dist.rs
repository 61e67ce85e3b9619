//! Algorithm 2: DVFS scheduling (power saving + redistribution).

use lt_accel::dvfs::{DvfsTable, OperatingPoint};
use lt_accel::profile::DeviceProfile;
use lt_dnn::ModelKind;
use std::time::Duration;

/// Phase 1 of Algorithm 2 ("saving power"): the slowest point at which
/// `kind`/`batch` still meets `t_avail`. Falls back to the fastest point
/// when even it misses the deadline (the workload scheduler will then
/// defer).
pub fn scale_down_to_deadline(
    profile: &DeviceProfile,
    kind: ModelKind,
    batch: u32,
    t_avail: Duration,
    table: &DvfsTable,
) -> OperatingPoint {
    table
        .points()
        .iter()
        .find(|p| profile.t_total(kind, batch, **p) <= t_avail)
        .copied()
        .unwrap_or_else(|| table.max())
}

/// Phase 2 of Algorithm 2 ("redistributing power") applied to *running*
/// batches: greedily climb the busy accelerator with the highest
/// marginal PPW gain, one DVFS notch at a time, while the pool total
/// (busy draws plus one idle reservation per idle slot) stays within
/// `pool_budget_w`. The loop runs until no upgrade fits, exactly as the
/// paper iterates Algorithm 2 "until it can not distribute the available
/// power budget".
///
/// `desired` holds one entry per accelerator — `Some((batch, point))`
/// for a running batch, `None` for an idle slot — and is updated in
/// place with the target points. This is pure planning: the simulator
/// applies it to the running batches, with its own hysteresis
/// (mid-flight climbs need at least two notches, §III-D's guard against
/// frequent scaling).
pub fn plan_uprates(
    profile: &DeviceProfile,
    kind: ModelKind,
    reservation_w: f64,
    pool_budget_w: f64,
    table: &DvfsTable,
    desired: &mut [Option<(u32, OperatingPoint)>],
) {
    loop {
        let total: f64 = desired
            .iter()
            .map(|d| match d {
                Some((batch, point)) => profile.power_w(kind, *batch, *point),
                None => reservation_w,
            })
            .sum();
        let avail = pool_budget_w - total;
        let mut best: Option<(f64, usize, OperatingPoint)> = None;
        for (aid, d) in desired.iter().enumerate() {
            let Some((batch, point)) = d else {
                continue;
            };
            let Some(up) = table.step_up(*point) else {
                continue;
            };
            let inc = profile.power_w(kind, *batch, up) - profile.power_w(kind, *batch, *point);
            if inc <= avail {
                let ppw_inc = profile.ppw(kind, *batch, up) - profile.ppw(kind, *batch, *point);
                if best.is_none_or(|(b, _, _)| ppw_inc > b) {
                    best = Some((ppw_inc, aid, up));
                }
            }
        }
        match best {
            Some((_, aid, up)) => {
                desired[aid] = desired[aid].map(|(b, _)| (b, up));
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DeviceProfile {
        DeviceProfile::lighttrader()
    }

    fn table() -> DvfsTable {
        DvfsTable::evaluation()
    }

    /// Pool draw of a plan: busy slots at their point, idle slots at
    /// the reservation.
    fn pool_w(kind: ModelKind, idle_w: f64, desired: &[Option<(u32, OperatingPoint)>]) -> f64 {
        desired
            .iter()
            .map(|d| d.map_or(idle_w, |(b, pt)| profile().power_w(kind, b, pt)))
            .sum()
    }

    #[test]
    fn scale_down_picks_slowest_feasible() {
        let p = profile();
        // A millisecond budget: even 0.8 GHz meets it for the CNN.
        let pt = scale_down_to_deadline(
            &p,
            ModelKind::VanillaCnn,
            1,
            Duration::from_millis(1),
            &table(),
        );
        assert!((pt.freq_ghz - 0.8).abs() < 1e-9);
        // A 150 µs budget needs a fast clock for the CNN (119 µs @ 2.0).
        let pt = scale_down_to_deadline(
            &p,
            ModelKind::VanillaCnn,
            1,
            Duration::from_micros(150),
            &table(),
        );
        assert!(pt.freq_ghz >= 1.6);
        let t = p.t_total(ModelKind::VanillaCnn, 1, pt);
        assert!(t <= Duration::from_micros(150));
    }

    #[test]
    fn scale_down_impossible_deadline_returns_max() {
        let pt = scale_down_to_deadline(
            &profile(),
            ModelKind::DeepLob,
            1,
            Duration::from_micros(1),
            &table(),
        );
        assert!((pt.freq_ghz - table().max().freq_ghz).abs() < 1e-9);
    }

    #[test]
    fn redistribution_spends_available_budget() {
        // Two busy accelerators at the bottom of the ladder beside an
        // idle one, generous budget: both busy ones climb to the top.
        let low = Some((1u32, OperatingPoint::at_freq(0.8)));
        let mut desired = vec![low, None, low];
        plan_uprates(
            &profile(),
            ModelKind::VanillaCnn,
            0.5,
            55.0,
            &table(),
            &mut desired,
        );
        assert_eq!(desired[1], None);
        for slot in [desired[0], desired[2]] {
            let (_, point) = slot.unwrap();
            assert!((point.freq_ghz - 2.0).abs() < 1e-9, "stopped at {point}");
        }
    }

    #[test]
    fn redistribution_respects_budget() {
        let p = profile();
        let kind = ModelKind::DeepLob;
        let idle_w = p.idle_power_w(kind);
        let low = Some((1u32, OperatingPoint::at_freq(0.8)));
        let mut desired = vec![low, None, low];
        let budget = 6.0 + idle_w;
        plan_uprates(&p, kind, idle_w, budget, &table(), &mut desired);
        let total = pool_w(kind, idle_w, &desired);
        assert!(total <= budget + 1e-9, "total {total} > budget {budget}");
        // And no further single-notch upgrade fits.
        for (aid, (batch, point)) in desired.iter().flatten().enumerate() {
            if let Some(up) = table().step_up(*point) {
                let inc = p.power_w(kind, *batch, up) - p.power_w(kind, *batch, *point);
                assert!(total + inc > budget, "upgrade still fits for busy #{aid}");
            }
        }
    }

    #[test]
    fn idle_draw_reduces_headroom() {
        let p = profile();
        let kind = ModelKind::DeepLob;
        let start = vec![Some((1u32, OperatingPoint::at_freq(0.8))), None];
        let mut generous = start.clone();
        plan_uprates(&p, kind, 0.0, 4.0, &table(), &mut generous);
        let mut squeezed = start;
        plan_uprates(&p, kind, 2.0, 4.0, &table(), &mut squeezed);
        assert!(
            squeezed[0].unwrap().1.freq_ghz < generous[0].unwrap().1.freq_ghz,
            "idle draw must eat into the distributable budget"
        );
    }

    #[test]
    fn empty_pool_is_noop() {
        plan_uprates(&profile(), ModelKind::DeepLob, 1.0, 10.0, &table(), &mut []);
        // Nothing busy: nothing to climb, whatever the budget.
        let mut idle = vec![None, None];
        plan_uprates(
            &profile(),
            ModelKind::DeepLob,
            1.0,
            10.0,
            &table(),
            &mut idle,
        );
        assert_eq!(idle, vec![None, None]);
    }

    /// The headline DS mechanism: when only one of many accelerators is
    /// busy, it may run *faster* than the conservative static plan, which
    /// had to assume all accelerators draw power simultaneously.
    #[test]
    fn lone_busy_accelerator_beats_static_plan() {
        use lt_accel::{static_plan, PowerCondition};
        let p = profile();
        let n = 16;
        let kind = ModelKind::DeepLob;
        let plan = static_plan(kind, n, PowerCondition::Sufficient);
        // 15 idle accelerators at idle draw; one busy.
        let mut desired = vec![None; n];
        desired[0] = Some((1u32, table().min()));
        plan_uprates(
            &p,
            kind,
            p.idle_power_w(kind),
            PowerCondition::Sufficient.accelerator_budget_w(),
            &table(),
            &mut desired,
        );
        let (_, point) = desired[0].unwrap();
        assert!(
            point.freq_ghz > plan.point.freq_ghz,
            "DS point {:.1} GHz should beat static {:.1} GHz",
            point.freq_ghz,
            plan.point.freq_ghz
        );
    }

    #[test]
    fn plan_uprates_climbs_busy_slots_and_skips_idle() {
        let p = profile();
        let t = table();
        let kind = ModelKind::VanillaCnn;
        let low = t.min();
        let mut desired = vec![Some((1u32, low)), None, Some((2u32, low))];
        // A generous pool: every busy slot climbs to the table maximum.
        plan_uprates(&p, kind, 1.0, 1_000.0, &t, &mut desired);
        assert_eq!(desired[1], None, "idle slots are never upgraded");
        for slot in [desired[0], desired[2]] {
            let (_, point) = slot.unwrap();
            assert!((point.freq_ghz - t.max().freq_ghz).abs() < 1e-9);
        }
        // Batch sizes survive the climb.
        assert_eq!(desired[0].unwrap().0, 1);
        assert_eq!(desired[2].unwrap().0, 2);
    }

    #[test]
    fn plan_uprates_respects_pool_budget_and_reservations() {
        let p = profile();
        let t = table();
        let kind = ModelKind::DeepLob;
        let low = t.min();
        let idle_w = p.idle_power_w(kind);
        // Budget exactly covers the current draw: nothing can move.
        let mut frozen = vec![Some((1u32, low)), None];
        let consumed = p.power_w(kind, 1, low) + idle_w;
        plan_uprates(&p, kind, idle_w, consumed, &t, &mut frozen);
        assert_eq!(frozen[0], Some((1, low)), "no headroom, no upgrade");
        // With headroom the plan climbs but never exceeds the pool budget.
        let budget = consumed + 2.0;
        let mut planned = vec![Some((1u32, low)), None];
        plan_uprates(&p, kind, idle_w, budget, &t, &mut planned);
        let (_, point) = planned[0].unwrap();
        assert!(point.freq_ghz >= low.freq_ghz);
        let total = p.power_w(kind, 1, point) + idle_w;
        assert!(total <= budget + 1e-9, "total {total} > budget {budget}");
        // And the plan is maximal: one more notch would not fit.
        if let Some(up) = t.step_up(point) {
            assert!(p.power_w(kind, 1, up) + idle_w > budget);
        }
    }
}
