//! The per-chip device state machine driven by the simulator.

use crate::dvfs::{DvfsTable, OperatingPoint};
use lt_lob::Timestamp;
use std::time::Duration;

/// Completion-callback token for one issued (or re-timed) busy window.
///
/// The discrete-event simulator schedules a completion event carrying the
/// token returned by [`Accelerator::start_batch`]. When a DVFS rescale
/// re-times the in-flight batch, [`Accelerator::retime_batch`] issues a
/// fresh token, so the completion event scheduled for the *old* finishing
/// time no longer matches [`Accelerator::current_batch`] and is discarded
/// instead of completing the batch twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId(u64);

/// One AI accelerator: its DVFS point, busy window, and switch history.
///
/// The scheduler mutates this through [`Accelerator::set_point`] (which
/// charges the PMIC switching delay and enforces the minimum dwell time)
/// and [`Accelerator::start_batch`], whose token the discrete-event
/// simulator's completion event carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    id: usize,
    point: OperatingPoint,
    busy_until: Option<Timestamp>,
    last_switch: Option<Timestamp>,
    issued: u64,
    current: Option<BatchId>,
}

impl Accelerator {
    /// Creates an idle accelerator at `point`.
    pub fn new(id: usize, point: OperatingPoint) -> Self {
        Accelerator {
            id,
            point,
            busy_until: None,
            last_switch: None,
            issued: 0,
            current: None,
        }
    }

    /// The current operating point.
    pub fn point(&self) -> OperatingPoint {
        self.point
    }

    /// True when no batch is in flight at `now`.
    fn is_idle(&self, now: Timestamp) -> bool {
        match self.busy_until {
            Some(t) => t <= now,
            None => true,
        }
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

    /// Marks the device busy until `completion`, returning the token the
    /// matching completion event must carry.
    ///
    /// # Panics
    ///
    /// Panics if the device is already busy at `now`.
    pub fn start_batch(&mut self, now: Timestamp, completion: Timestamp) -> BatchId {
        assert!(
            self.is_idle(now),
            "accelerator {} already busy until {:?}",
            self.id,
            self.busy_until
        );
        assert!(completion >= now, "completion before start");
        self.busy_until = Some(completion);
        self.next_token()
    }

    /// Moves the in-flight batch's finishing time (a DVFS rescale
    /// stretched or shrank the remaining work) and returns a fresh
    /// completion token; the token from [`Self::start_batch`] — and any
    /// completion event carrying it — becomes stale.
    ///
    /// # Panics
    ///
    /// Panics if no batch is in flight.
    pub fn retime_batch(&mut self, completion: Timestamp) -> BatchId {
        assert!(
            self.current.is_some(),
            "accelerator {} has no batch to re-time",
            self.id
        );
        self.busy_until = Some(completion);
        self.next_token()
    }

    /// The token of the in-flight batch, if any. A completion event whose
    /// token does not match is stale and must be ignored.
    pub fn current_batch(&self) -> Option<BatchId> {
        self.current
    }

    /// Clears the busy window (called by the simulator at completion).
    pub fn finish_batch(&mut self) {
        self.busy_until = None;
        self.current = None;
    }

    fn next_token(&mut self) -> BatchId {
        let id = BatchId(self.issued);
        self.issued += 1;
        self.current = Some(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn accel() -> Accelerator {
        Accelerator::new(0, OperatingPoint::at_freq(2.0))
    }

    #[test]
    fn starts_idle() {
        let a = accel();
        assert!(a.is_idle(ts(0)));
    }

    #[test]
    fn busy_window_lifecycle() {
        let mut a = accel();
        a.start_batch(ts(10), ts(110));
        assert!(!a.is_idle(ts(50)));
        assert!(a.is_idle(ts(110)), "idle exactly at completion");
        a.finish_batch();
        assert!(a.is_idle(ts(50)));
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_start_panics() {
        let mut a = accel();
        a.start_batch(ts(0), ts(100));
        a.start_batch(ts(50), ts(150));
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
    fn completion_tokens_go_stale_on_retime() {
        let mut a = accel();
        let first = a.start_batch(ts(0), ts(100));
        assert_eq!(a.current_batch(), Some(first));
        // A rescale re-times the batch: the first token goes stale.
        let second = a.retime_batch(ts(80));
        assert_ne!(first, second);
        assert_eq!(a.current_batch(), Some(second));
        assert!(!a.is_idle(ts(79)) && a.is_idle(ts(80)));
        a.finish_batch();
        assert_eq!(a.current_batch(), None);
        // Tokens never repeat across batches.
        let third = a.start_batch(ts(200), ts(300));
        assert_ne!(third, first);
        assert_ne!(third, second);
    }

    #[test]
    #[should_panic(expected = "no batch to re-time")]
    fn retime_without_batch_panics() {
        let mut a = accel();
        let _ = a.retime_batch(ts(10));
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
