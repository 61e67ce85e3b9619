//! Property tests for the accelerator models.

use lt_accel::dvfs::{DvfsTable, OperatingPoint};
use lt_accel::{DeviceProfile, PowerModel};
use lt_dnn::ModelKind;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::VanillaCnn),
        Just(ModelKind::TransLob),
        Just(ModelKind::DeepLob),
    ]
}

fn point_strategy() -> impl Strategy<Value = OperatingPoint> {
    (8u64..=22).prop_map(|tenths| OperatingPoint::at_freq(tenths as f64 / 10.0))
}

proptest! {
    /// Latency is monotone: more batch or less clock never goes faster.
    #[test]
    fn latency_monotonicity(
        kind in kind_strategy(),
        point in point_strategy(),
        batch in 1u32..16,
    ) {
        let profile = DeviceProfile::lighttrader();
        let t = profile.t_infer(kind, batch, point);
        prop_assert!(profile.t_infer(kind, batch + 1, point) > t);
        if let Some(up) = DvfsTable::full_range().step_up(point) {
            prop_assert!(profile.t_infer(kind, batch, up) < t);
        }
    }

    /// Power is monotone in clock and batch, and always within Table I.
    #[test]
    fn power_monotonicity_and_envelope(
        kind in kind_strategy(),
        point in point_strategy(),
        batch in 1u32..16,
    ) {
        let power = PowerModel::calibrated();
        let w = power.power_w(kind, batch, point);
        prop_assert!(w > 0.0 && w <= 10.8, "{} W", w);
        prop_assert!(power.power_w(kind, batch + 1, point) > w);
        if let Some(up) = DvfsTable::full_range().step_up(point) {
            prop_assert!(power.power_w(kind, batch, up) > w);
        }
    }

    /// Full batching beats single-query PPW at every point of the
    /// evaluation table (<= 2.0 GHz). Per-step monotonicity does NOT hold
    /// universally — at 2.2 GHz the dynamic-power lift of a second query
    /// can outweigh its amortization — which is exactly why Algorithm 1
    /// searches the grid instead of assuming "bigger batch is better".
    #[test]
    fn batching_pays_off_on_evaluation_table(
        kind in kind_strategy(),
        tenths in 8u64..=20,
    ) {
        let point = OperatingPoint::at_freq(tenths as f64 / 10.0);
        let profile = DeviceProfile::lighttrader();
        prop_assert!(profile.ppw(kind, 16, point) > profile.ppw(kind, 1, point));
    }
}
