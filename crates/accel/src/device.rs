//! The per-chip DVFS rule the simulator drives: an operating point whose
//! every change pays the PMIC switching delay and the minimum dwell.

use crate::dvfs::{DvfsTable, OperatingPoint};
use lt_lob::Timestamp;
use std::time::Duration;

/// One AI accelerator's DVFS state: its operating point and switch
/// history.
///
/// The scheduler moves it through [`Accelerator::set_point`], which
/// charges the PMIC switching delay and enforces the minimum dwell time.
/// What the chip is running is the simulator's record of its batch in
/// flight, not this type's.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    point: OperatingPoint,
    last_switch: Option<Timestamp>,
}

impl Accelerator {
    /// Creates an accelerator at `point` that has never switched.
    pub fn new(point: OperatingPoint) -> Self {
        Accelerator {
            point,
            last_switch: None,
        }
    }

    /// The current operating point.
    pub fn point(&self) -> OperatingPoint {
        self.point
    }

    /// Requests a DVFS change at `now`.
    ///
    /// Returns the *delay before the new point is usable*: zero when the
    /// point is unchanged; otherwise the PMIC switching delay, extended if
    /// the minimum dwell time since the previous switch has not elapsed
    /// (the paper's guard against rapid repeated scaling, §III-D).
    pub fn set_point(&mut self, target: OperatingPoint, now: Timestamp) -> Duration {
        if (target.freq_ghz - self.point.freq_ghz).abs() < 1e-12 {
            return Duration::ZERO;
        }
        let dwell_wait = match self.last_switch {
            Some(prev) if prev > now => {
                // The previous switch has not even taken effect yet: wait
                // for it, then a full dwell period.
                prev.since(now) + DvfsTable::MIN_DWELL
            }
            Some(prev) => DvfsTable::MIN_DWELL.saturating_sub(now.since(prev)),
            None => Duration::ZERO,
        };
        let delay = dwell_wait + DvfsTable::SWITCH_DELAY;
        self.point = target;
        self.last_switch = Some(now + delay);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn accel() -> Accelerator {
        Accelerator::new(OperatingPoint::at_freq(2.0))
    }

    #[test]
    fn same_point_switch_is_free() {
        let mut a = accel();
        let d = a.set_point(OperatingPoint::at_freq(2.0), ts(0));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn switch_charges_pmic_delay() {
        let mut a = accel();
        let d = a.set_point(OperatingPoint::at_freq(1.5), ts(0));
        assert_eq!(d, DvfsTable::SWITCH_DELAY);
        assert!((a.point().freq_ghz - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rapid_switches_pay_dwell_penalty() {
        let mut a = accel();
        let d1 = a.set_point(OperatingPoint::at_freq(1.5), ts(0));
        assert_eq!(d1, DvfsTable::SWITCH_DELAY);
        // Second switch only 20 µs later: must wait out the 50 µs dwell
        // (measured from when the first switch became effective).
        let d2 = a.set_point(OperatingPoint::at_freq(2.0), ts(20));
        assert!(d2 > DvfsTable::SWITCH_DELAY, "dwell not enforced: {d2:?}");
        // A switch after a long pause pays only the PMIC delay.
        let mut b = accel();
        b.set_point(OperatingPoint::at_freq(1.5), ts(0));
        let d3 = b.set_point(OperatingPoint::at_freq(2.0), ts(1_000));
        assert_eq!(d3, DvfsTable::SWITCH_DELAY);
    }
}
