//! Channel sequence tracking with outstanding-gap accounting.
//!
//! The wire carries a `u32` channel sequence. A correct receiver must
//! (a) keep decoding across gaps, (b) accept a *late* packet that fills
//! a previously-recorded gap instead of misfiling it as a duplicate,
//! and (c) survive the `u32` wrapping at `u32::MAX`. [`SeqTracker`]
//! does all three by widening observed sequences into a monotone `u64`
//! space and remembering every outstanding gap range until it is filled.

use std::collections::BTreeMap;

/// What one observed sequence number means for the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqObservation {
    /// The first packet the tracker has seen.
    First,
    /// Exactly the expected next sequence.
    InOrder,
    /// Ahead of the expected sequence; `missing` packets were skipped
    /// and recorded as an outstanding gap.
    Gap {
        /// Number of sequence values jumped over.
        missing: u64,
    },
    /// A late packet that fills part of an outstanding gap.
    Recovered,
    /// Already seen (or before the tracker's start) — drop it.
    Duplicate,
}

/// Tracks one channel's sequence stream.
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    /// Next expected sequence in the widened `u64` space; `None` until
    /// the first observation (unless constructed via [`starting_at`]).
    ///
    /// [`starting_at`]: SeqTracker::starting_at
    next: Option<u64>,
    /// Outstanding gap ranges, start → end (exclusive), in widened space.
    gaps: BTreeMap<u64, u64>,
    /// Total sequence values currently missing across all gaps.
    outstanding: u64,
}

impl SeqTracker {
    /// A tracker that learns its start from the first packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker that expects the stream to begin at `next` (widened
    /// space). Packets before `next` count as duplicates; a stream
    /// starting later records the missing prefix as a gap.
    pub fn starting_at(next: u64) -> Self {
        SeqTracker {
            next: Some(next),
            gaps: BTreeMap::new(),
            outstanding: 0,
        }
    }

    /// Sequence values recorded as gaps and not yet filled.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Widens a raw `u32` wire sequence into the monotone `u64` space by
    /// picking the candidate (same low 32 bits) closest to `expected`.
    /// This is RFC 1982-style serial arithmetic: it makes the stream
    /// survive the `u32` wrap without ever overflowing.
    fn widen(seq: u32, expected: u64) -> u64 {
        let base = (expected & !0xFFFF_FFFF) | u64::from(seq);
        let mut best = base;
        let mut best_dist = base.abs_diff(expected);
        for cand in [base.checked_add(1 << 32), base.checked_sub(1 << 32)]
            .into_iter()
            .flatten()
        {
            let dist = cand.abs_diff(expected);
            if dist < best_dist {
                best = cand;
                best_dist = dist;
            }
        }
        best
    }

    /// Observes one wire sequence number and classifies it.
    pub fn observe(&mut self, seq: u32) -> SeqObservation {
        let expected = match self.next {
            None => {
                self.next = Some(u64::from(seq) + 1);
                return SeqObservation::First;
            }
            Some(e) => e,
        };
        let widened = Self::widen(seq, expected);
        if widened == expected {
            self.next = Some(expected + 1);
            return SeqObservation::InOrder;
        }
        if widened > expected {
            let missing = widened - expected;
            self.gaps.insert(expected, widened);
            self.outstanding += missing;
            self.next = Some(widened + 1);
            return SeqObservation::Gap { missing };
        }
        // Behind the expected sequence: either a late gap-filler or a
        // true duplicate.
        if let Some((&start, &end)) = self.gaps.range(..=widened).next_back() {
            if widened < end {
                // Split the containing gap around the filled value.
                self.gaps.remove(&start);
                if start < widened {
                    self.gaps.insert(start, widened);
                }
                if widened + 1 < end {
                    self.gaps.insert(widened + 1, end);
                }
                self.outstanding -= 1;
                return SeqObservation::Recovered;
            }
        }
        SeqObservation::Duplicate
    }

    /// Closes the stream at `end` (exclusive, widened space): sequences
    /// from the expected next value up to `end` that never arrived are
    /// recorded as a trailing gap, so [`outstanding`] counts losses at
    /// the tail of the stream too. A tracker that never saw a packet
    /// records the whole `[0, end)` range as missing.
    ///
    /// [`outstanding`]: SeqTracker::outstanding
    pub fn close(&mut self, end: u64) {
        let next = self.next.unwrap_or(0);
        if next < end {
            self.gaps.insert(next, end);
            self.outstanding += end - next;
            self.next = Some(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(5), SeqObservation::First);
        assert_eq!(t.observe(6), SeqObservation::InOrder);
        assert_eq!(t.observe(7), SeqObservation::InOrder);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn gap_then_late_fill_is_recovered() {
        let mut t = SeqTracker::new();
        t.observe(0);
        assert_eq!(t.observe(3), SeqObservation::Gap { missing: 2 });
        assert_eq!(t.outstanding(), 2);
        assert_eq!(t.observe(1), SeqObservation::Recovered);
        assert_eq!(t.observe(2), SeqObservation::Recovered);
        assert_eq!(t.outstanding(), 0);
        // Filling twice is a duplicate.
        assert_eq!(t.observe(1), SeqObservation::Duplicate);
    }

    #[test]
    fn gap_split_keeps_unfilled_halves() {
        let mut t = SeqTracker::new();
        t.observe(0);
        t.observe(10); // gap [1, 10)
        assert_eq!(t.observe(5), SeqObservation::Recovered);
        assert_eq!(t.outstanding(), 8);
        assert_eq!(t.observe(5), SeqObservation::Duplicate);
        // Both halves still recover: [1, 5) and [6, 10).
        assert_eq!(t.observe(4), SeqObservation::Recovered);
        assert_eq!(t.observe(6), SeqObservation::Recovered);
        assert_eq!(t.outstanding(), 6);
    }

    #[test]
    fn duplicate_of_delivered_packet() {
        let mut t = SeqTracker::new();
        t.observe(0);
        t.observe(1);
        assert_eq!(t.observe(0), SeqObservation::Duplicate);
        assert_eq!(t.observe(1), SeqObservation::Duplicate);
    }

    #[test]
    fn survives_u32_wrap() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(u32::MAX - 1), SeqObservation::First);
        assert_eq!(t.observe(u32::MAX), SeqObservation::InOrder);
        // The wire wraps to 0; the widened stream keeps climbing.
        assert_eq!(t.observe(0), SeqObservation::InOrder);
        assert_eq!(t.observe(1), SeqObservation::InOrder);
        assert_eq!(t.observe(2), SeqObservation::InOrder);
    }

    #[test]
    fn late_fill_across_wrap() {
        let mut t = SeqTracker::new();
        t.observe(u32::MAX - 1);
        assert_eq!(t.observe(1), SeqObservation::Gap { missing: 2 });
        // u32::MAX and 0 were skipped; both arrive late across the wrap.
        assert_eq!(t.observe(u32::MAX), SeqObservation::Recovered);
        assert_eq!(t.observe(0), SeqObservation::Recovered);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn close_records_trailing_losses() {
        let mut t = SeqTracker::new();
        t.observe(0);
        t.observe(1);
        // Packets 2..5 never arrive; closing the stream records them.
        t.close(5);
        assert_eq!(t.outstanding(), 3);
        // A late fill after close still counts as recovered.
        assert_eq!(t.observe(3), SeqObservation::Recovered);
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    fn close_on_empty_tracker_records_everything() {
        let mut t = SeqTracker::new();
        t.close(4);
        assert_eq!(t.outstanding(), 4);
    }

    #[test]
    fn starting_at_records_missing_prefix() {
        let mut t = SeqTracker::starting_at(0);
        assert_eq!(t.observe(2), SeqObservation::Gap { missing: 2 });
        assert_eq!(t.observe(0), SeqObservation::Recovered);
        assert_eq!(t.observe(1), SeqObservation::Recovered);
    }
}
