//! Order-rate limiting and the kill switch.
//!
//! Exchanges enforce per-session messaging limits, and every production
//! trading system carries a hard kill switch — the last line of the
//! "conservative risk management policy" the paper's trading engine
//! embodies (§III-A). [`OrderRateLimiter`] is a token bucket over a
//! sliding one-second window; [`KillSwitch`] trips permanently once the
//! mark-to-market loss breaches a configured floor. Both are gates of
//! the [`crate::TradingEngine`], which counts the orders they refuse.

use lt_lob::Timestamp;
use std::collections::VecDeque;

/// A sliding-window order-rate limiter.
#[derive(Debug, Clone)]
pub struct OrderRateLimiter {
    /// Maximum orders per window.
    limit: u32,
    /// Window length in nanoseconds.
    window_ns: u64,
    /// Send times inside the current window.
    sends: VecDeque<Timestamp>,
}

impl OrderRateLimiter {
    /// Creates a limiter allowing `limit` orders per second.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn per_second(limit: u32) -> Self {
        assert!(limit > 0, "limit must be positive");
        OrderRateLimiter {
            limit,
            window_ns: 1_000_000_000,
            sends: VecDeque::new(),
        }
    }

    /// Checks (without consuming a slot) whether an order at `now` would
    /// pass. Prunes expired window entries as a side effect.
    pub fn would_allow(&mut self, now: Timestamp) -> bool {
        while let Some(front) = self.sends.front() {
            if now.nanos_since(*front) >= self.window_ns {
                self.sends.pop_front();
            } else {
                break;
            }
        }
        self.sends.len() < self.limit as usize
    }

    /// Consumes a window slot for an order actually sent at `now`.
    pub fn record(&mut self, now: Timestamp) {
        self.sends.push_back(now);
    }
}

/// A latching kill switch: once tripped, all trading stops for good.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    /// Most negative tolerable P&L in **half-ticks** x contracts (stored
    /// doubled so half-tick marks compare exactly).
    loss_floor_half: i64,
    tripped: bool,
}

impl KillSwitch {
    /// Creates an armed switch with the loss floor in whole ticks.
    pub fn new(loss_floor_ticks: i64) -> Self {
        KillSwitch {
            loss_floor_half: 2 * loss_floor_ticks,
            tripped: false,
        }
    }

    /// True while trading is permitted.
    pub fn is_armed(&self) -> bool {
        !self.tripped
    }

    /// Feeds the latest mark-to-market P&L in **half-ticks** (the exact
    /// mid-valuation unit, see [`lt_lob::LobSnapshot::mid_half_ticks`]);
    /// trips on a mark at or below the floor.
    pub fn observe_pnl_half(&mut self, pnl_half: i64) {
        self.tripped |= pnl_half <= self.loss_floor_half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends at `now` if the window has room, as the trading engine does,
    /// counting a refusal in `rejected`.
    fn send(limiter: &mut OrderRateLimiter, now: Timestamp, rejected: &mut u64) -> bool {
        let sent = limiter.would_allow(now);
        if sent {
            limiter.record(now);
        } else {
            *rejected += 1;
        }
        sent
    }

    #[test]
    fn limiter_caps_per_second() {
        let mut limiter = OrderRateLimiter::per_second(3);
        let mut rejected = 0;
        let t0 = Timestamp::from_millis(0);
        assert!(send(&mut limiter, t0, &mut rejected));
        assert!(send(
            &mut limiter,
            Timestamp::from_millis(100),
            &mut rejected
        ));
        assert!(send(
            &mut limiter,
            Timestamp::from_millis(200),
            &mut rejected
        ));
        assert!(
            !send(&mut limiter, Timestamp::from_millis(300), &mut rejected),
            "4th in window"
        );
        assert_eq!(rejected, 1);
        // The window slides: the t0 send expires at t0+1s.
        assert!(send(
            &mut limiter,
            Timestamp::from_millis(1_001),
            &mut rejected
        ));
        assert!(
            !send(&mut limiter, Timestamp::from_millis(1_001), &mut rejected),
            "window full again"
        );
        assert_eq!(rejected, 2);
    }

    #[test]
    fn limiter_handles_bursts_cleanly() {
        let mut limiter = OrderRateLimiter::per_second(10);
        let mut rejected = 0;
        let mut allowed = 0;
        for i in 0..100u64 {
            if send(&mut limiter, Timestamp::from_micros(i * 10), &mut rejected) {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 10, "only the cap passes in one burst");
        assert_eq!(rejected, 90);
    }

    #[test]
    fn kill_switch_trips_on_loss() {
        // Floor −100 ticks = −200 half-ticks.
        let mut ks = KillSwitch::new(-100);
        assert!(ks.is_armed());
        ks.observe_pnl_half(-100);
        ks.observe_pnl_half(-199);
        assert!(ks.is_armed(), "the last mark above the floor");
        ks.observe_pnl_half(-200);
        assert!(!ks.is_armed(), "the first mark at the floor");
        // Latching: recovery does not re-arm.
        ks.observe_pnl_half(1_000);
        assert!(!ks.is_armed());
    }

    #[test]
    fn kill_switch_compares_half_ticks_exactly() {
        // Floor −100 ticks = −200 half-ticks. A −100.5-tick mark (−201
        // half-ticks) must trip even though it truncates to −100 in whole
        // ticks — the half-tick comparison is exact.
        let mut ks = KillSwitch::new(-100);
        ks.observe_pnl_half(-199);
        assert!(ks.is_armed());
        ks.observe_pnl_half(-201);
        assert!(!ks.is_armed());
        // One half-tick under a floor is a breach: −100.5 ticks against a
        // floor of −101 still trades, −101 does not.
        let mut ks = KillSwitch::new(-101);
        ks.observe_pnl_half(-201);
        assert!(ks.is_armed());
        ks.observe_pnl_half(-202);
        assert!(!ks.is_armed());
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn zero_limit_panics() {
        let _ = OrderRateLimiter::per_second(0);
    }

    #[test]
    fn burst_at_window_boundary() {
        let mut limiter = OrderRateLimiter::per_second(2);
        let mut rejected = 0;
        let t0 = Timestamp::from_nanos(5_000);
        assert!(send(&mut limiter, t0, &mut rejected));
        assert!(send(&mut limiter, t0, &mut rejected));
        // One nanosecond short of expiry the t0 sends still count.
        let almost = Timestamp::from_nanos(5_000 + 999_999_999);
        assert!(!send(&mut limiter, almost, &mut rejected));
        // At exactly t0 + 1 s both expire: a full burst passes again.
        let boundary = Timestamp::from_nanos(5_000 + 1_000_000_000);
        assert!(send(&mut limiter, boundary, &mut rejected));
        assert!(send(&mut limiter, boundary, &mut rejected));
        assert!(
            !send(&mut limiter, boundary, &mut rejected),
            "new window is also capped"
        );
        assert_eq!(rejected, 2);
    }

    #[test]
    fn would_allow_checks_without_consuming() {
        let mut limiter = OrderRateLimiter::per_second(1);
        let t0 = Timestamp::from_millis(1);
        for _ in 0..10 {
            assert!(limiter.would_allow(t0), "peeking must not consume slots");
        }
        limiter.record(t0);
        assert!(!limiter.would_allow(t0));
    }
}
