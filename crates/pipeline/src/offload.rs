//! The offload engine (Fig. 5).
//!
//! For every tick the offload engine (1) converts the LOB levels to BF16,
//! (2) Z-score-normalizes them against historical statistics, (3) pushes
//! the resulting feature vector into a sliding-window FIFO, and (4) once
//! the window is full, registers an input tensor for the DNN pipeline.
//! It also "manages the stale feature vectors and input tensors" — ticks
//! whose prediction horizon has lapsed are dropped before wasting
//! accelerator time, and Algorithm 1 may explicitly defer the oldest
//! tensor when no schedule fits.

use crate::multi_offload::TicketQueue;
use crate::stages::PipelineLatencies;
use lt_dnn::bf16::bf16_round;
use lt_dnn::{Tensor, MAX_SWEEP};
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};

/// A queued inference request: one tick whose input tensor is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorTicket {
    /// Monotone tick index within the session.
    pub tick_id: u64,
    /// Exchange timestamp of the triggering tick.
    pub tick_ts: Timestamp,
    /// When the tensor became ready for DMA: the tick's arrival plus the
    /// stage budget's ingress (later than `tick_ts` plus it when the tick
    /// arrived late).
    pub ready_at: Timestamp,
}

/// The sliding feature window of one instrument shard: one flat,
/// pre-allocated ring of `window + MAX_SWEEP − 1` rows of `4·depth`
/// floats, so a sweep of up to [`MAX_SWEEP`] windows ending at the newest
/// rows can be written out whole. Each tick's features are written,
/// normalized, and BF16-rounded *in place* in the next row slot, so
/// steady-state ingestion never allocates. `LightTrader` reads one per
/// shard, serving each warm tick before the next sweep and so never
/// queueing one; the back-test stages no window at all, only
/// [`TicketQueue`] tickets.
#[derive(Debug, Clone)]
pub struct FeatureWindow {
    norm: NormStats,
    window: usize,
    depth: usize,
    /// Flat ring of `window + MAX_SWEEP - 1` normalized feature rows,
    /// recycled in place.
    ring: Vec<f32>,
    /// Rows the ring holds (saturates at its row count).
    rows: usize,
    /// Ring slot the next tick's row will overwrite.
    next_row: usize,
}

impl FeatureWindow {
    /// Allocates the full ring up front.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(norm: NormStats, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let depth = norm.depth();
        FeatureWindow {
            norm,
            window,
            depth,
            ring: vec![0.0; (window + MAX_SWEEP - 1) * LobSnapshot::feature_count(depth)],
            rows: 0,
            next_row: 0,
        }
    }

    /// Rows the ring has room for.
    fn slots(&self) -> usize {
        self.window + MAX_SWEEP - 1
    }

    /// Writes `snapshot`'s feature row into the next ring slot,
    /// normalizes and BF16-rounds it in place, and returns whether the
    /// window is warm after the push.
    pub fn push(&mut self, snapshot: &LobSnapshot) -> bool {
        let width = LobSnapshot::feature_count(self.depth);
        let row = &mut self.ring[self.next_row * width..(self.next_row + 1) * width];
        snapshot.write_features(self.depth, row);
        self.norm.normalize(row);
        for f in row {
            *f = bf16_round(*f);
        }
        self.next_row += 1;
        if self.next_row == self.slots() {
            self.next_row = 0;
        }
        if self.rows < self.slots() {
            self.rows += 1;
        }
        self.rows >= self.window
    }

    /// True once the ring holds a full window of rows.
    pub fn is_warm(&self) -> bool {
        self.rows >= self.window
    }

    /// The configured window length, in ticks.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feature columns per row (`4 × depth`).
    pub fn width(&self) -> usize {
        self.depth * 4
    }

    /// Writes the newest `out.len() / width` rows into `out`, oldest
    /// first — the allocation-free staging primitive. A window's worth is
    /// the current window; `window + k − 1` rows hold the `k` windows
    /// ending at the last `k` pushes, window `j` being rows
    /// `j..j + window`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not whole rows, or asks for more rows than
    /// were pushed or than the ring holds.
    pub fn write_newest_rows_into(&self, out: &mut [f32]) {
        let width = self.width();
        let n = out.len() / width;
        assert_eq!(n * width, out.len(), "whole feature rows");
        assert!(
            n <= self.rows,
            "feature FIFO not warm yet: {n} rows asked, {} pushed",
            self.rows
        );
        // The oldest row asked for, then up to the ring's end, then on
        // from its start.
        let first = (self.next_row + self.slots() - n) % self.slots();
        let head = n.min(self.slots() - first) * width;
        out[..head].copy_from_slice(&self.ring[first * width..][..head]);
        out[head..].copy_from_slice(&self.ring[..n * width - head]);
    }
}

/// The single-symbol offload engine: a [`FeatureWindow`] in front of a
/// one-shard [`TicketQueue`], so warm-up, admission, tick ids and FIFO
/// order are the queue's by construction. Kept only because the
/// benchmark's shadow paths, `tests/cross_crate.rs` and the zero-alloc
/// gates name it; no library code uses it.
#[derive(Debug, Clone)]
pub struct OffloadEngine {
    window: FeatureWindow,
    queue: TicketQueue,
}

impl OffloadEngine {
    /// Creates an engine whose feature FIFO spans `window` ticks of
    /// `norm.depth()`-level snapshots and whose queue holds `capacity`
    /// tickets, all allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `capacity`, or the stats' depth is unusable.
    pub fn new(norm: NormStats, window: usize, capacity: usize) -> Self {
        OffloadEngine {
            window: FeatureWindow::new(norm, window),
            queue: TicketQueue::new(1, window, capacity),
        }
    }

    /// Ticks dropped because the queue was full.
    pub fn dropped_full(&self) -> u64 {
        self.queue.dropped_full()
    }

    /// Tickets dropped because their deadline lapsed while queued.
    pub fn dropped_stale(&self) -> u64 {
        self.queue.dropped_stale()
    }

    /// Stages one tick arriving at `now` into the window and hands it to
    /// the queue, ready after the pipeline's ingress budget.
    pub fn on_tick_staged(
        &mut self,
        snapshot: &LobSnapshot,
        now: Timestamp,
        stages: &PipelineLatencies,
    ) -> Option<TensorTicket> {
        self.window.push(snapshot);
        self.queue
            .on_tick(0, snapshot.ts, now + stages.ingress())
            .map(|t| t.ticket)
    }

    /// True once the feature ring holds a full window.
    pub fn is_warm(&self) -> bool {
        self.window.is_warm()
    }

    /// Pops the oldest queued ticket, if any.
    pub fn pop_ticket(&mut self) -> Option<TensorTicket> {
        self.queue.pop_ticket().map(|t| t.ticket)
    }

    /// Pops up to `batch` tickets, oldest first, appending them to `out`.
    /// Allocation-free with a recycled caller-owned buffer.
    pub fn pop_batch_into(&mut self, batch: usize, out: &mut Vec<TensorTicket>) {
        out.extend(self.queue.drain_front(batch).map(|t| t.ticket));
    }

    /// Materializes the current window as a fresh `[window, 4*depth]`
    /// input tensor; steady-state callers use [`Self::write_window_into`].
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is not warm yet.
    pub fn latest_tensor(&self) -> Tensor {
        let (window, width) = (self.window.window(), self.window.width());
        let mut data = vec![0.0; window * width];
        self.write_window_into(&mut data);
        Tensor::from_vec(data, &[window, width])
    }

    /// Writes the current window into `out`, which must be one window
    /// long.
    pub fn write_window_into(&self, out: &mut [f32]) {
        let len = self.window.window() * self.window.width();
        assert_eq!(out.len(), len, "window buffer size");
        self.window.write_newest_rows_into(out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The pin on one-shard semantics: literal tick ids, admission
    //! order, capacity drops, window recency and BF16 rounding, all
    //! through the view; and the window's newest-rows staging.

    use super::*;
    use lt_lob::snapshot::SnapshotLevel;
    use lt_lob::{Price, Qty};

    /// A one-level book centred on `mid`, stamped `ts_us`.
    pub(crate) fn snap(ts_us: u64, mid: i64) -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::from_micros(ts_us),
            bids: vec![SnapshotLevel {
                price: Price::new(mid - 1),
                qty: Qty::new(5),
            }],
            asks: vec![SnapshotLevel {
                price: Price::new(mid + 1),
                qty: Qty::new(5),
            }],
        }
    }

    fn engine(window: usize, capacity: usize) -> OffloadEngine {
        OffloadEngine::new(NormStats::identity(1), window, capacity)
    }

    /// One tick at `ts_us` with the book centred on `mid`.
    fn tick(e: &mut OffloadEngine, ts_us: u64, mid: i64) -> Option<TensorTicket> {
        let stages = PipelineLatencies::fpga();
        e.on_tick_staged(&snap(ts_us, mid), Timestamp::from_micros(ts_us), &stages)
    }

    #[test]
    fn warms_up_before_enqueueing() {
        let mut e = engine(3, 8);
        assert!(tick(&mut e, 1, 100).is_none());
        assert!(tick(&mut e, 2, 100).is_none());
        assert!(!e.is_warm());
        let t = tick(&mut e, 3, 100).unwrap();
        assert!(e.is_warm());
        assert_eq!(t.tick_id, 2);
        assert_eq!(e.queue.queue_len(), 1);
    }

    #[test]
    fn queue_capacity_drops_excess() {
        let mut e = engine(1, 2);
        for i in 0..5u64 {
            tick(&mut e, i, 100);
        }
        assert_eq!(e.queue.queue_len(), 2);
        assert_eq!(e.dropped_full(), 3);
    }

    #[test]
    fn pop_batch_is_fifo() {
        let mut e = engine(1, 10);
        for i in 0..4u64 {
            tick(&mut e, i, 100);
        }
        let mut batch = Vec::new();
        e.pop_batch_into(3, &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].tick_id, 0);
        assert_eq!(batch[2].tick_id, 2);
        assert_eq!(e.queue.queue_len(), 1);
        // Requesting more than available returns what exists.
        batch.clear();
        e.pop_batch_into(10, &mut batch);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn pop_ticket_is_fifo_and_matches_pop_batch() {
        let mut e = engine(1, 10);
        for i in 0..3u64 {
            tick(&mut e, i, 100);
        }
        assert_eq!(e.pop_ticket().unwrap().tick_id, 0);
        assert_eq!(e.pop_ticket().unwrap().tick_id, 1);
        let mut batch = Vec::new();
        e.pop_batch_into(5, &mut batch);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tick_id, 2);
        assert!(e.pop_ticket().is_none());
    }

    #[test]
    fn pop_batch_into_recycles_the_buffer() {
        let mut e = engine(1, 10);
        for i in 0..6u64 {
            tick(&mut e, i, 100);
        }
        let mut buf = Vec::with_capacity(4);
        e.pop_batch_into(4, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf[0].tick_id, 0);
        assert_eq!(buf[3].tick_id, 3);
        // A recycled (cleared) buffer picks up where the queue left off.
        buf.clear();
        e.pop_batch_into(4, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].tick_id, 4);
        // Appending without clearing extends rather than overwrites.
        tick(&mut e, 7, 100);
        e.pop_batch_into(1, &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[2].tick_id, 6);
    }

    #[test]
    fn latest_tensor_shape_and_recency() {
        let mut e = engine(3, 10);
        for i in 0..5u64 {
            tick(&mut e, i, 100 + i as i64);
        }
        let t = e.latest_tensor();
        assert_eq!(t.shape(), &[3, 4]);
        // The last row reflects the newest tick (mid 104 -> ask 105).
        assert_eq!(t.at(&[2, 0]), 105.0);
        // And the first row is the oldest in-window tick (mid 102).
        assert_eq!(t.at(&[0, 0]), 103.0);
    }

    /// The newest `window + MAX_SWEEP - 1` rows, read at every phase of
    /// the ring's wrap, are the last pushes oldest first, so window `j`
    /// of the sweep is rows `j..j + window`.
    #[test]
    fn newest_rows_are_the_last_pushes_at_every_wrap_phase() {
        let (window, width) = (3, 4);
        let rows = window + MAX_SWEEP - 1;
        let mut w = FeatureWindow::new(NormStats::identity(1), window);
        let mut swept = vec![0.0; rows * width];
        for pushed in 1..=3 * rows {
            // Mids up to 100 + 54 are exact in BF16; the first column is
            // the best ask, one tick over the mid.
            w.push(&snap(pushed as u64, 100 + pushed as i64));
            if pushed < rows {
                continue;
            }
            w.write_newest_rows_into(&mut swept);
            for (r, row) in swept.chunks(width).enumerate() {
                let mid = 100 + (pushed - rows + 1 + r) as i64;
                assert_eq!(row[0], (mid + 1) as f32, "row {r} after {pushed} pushes");
            }
        }
    }

    #[test]
    fn features_are_bf16_rounded() {
        let mut e = engine(1, 4);
        tick(&mut e, 1, 12_345);
        let t = e.latest_tensor();
        for &v in t.data() {
            assert_eq!(bf16_round(v), v);
        }
    }

    #[test]
    #[should_panic(expected = "not warm")]
    fn latest_tensor_before_warm_panics() {
        let e = engine(3, 10);
        let _ = e.latest_tensor();
    }

    /// `ready_at` is the arrival plus the ingress budget, whatever the
    /// exchange stamped on the tick.
    #[test]
    fn staged_ingest_stamps_ingress_and_derives_ready_at() {
        let stages = PipelineLatencies::fpga();
        let mut e = engine(1, 10);
        let now = Timestamp::from_micros(7);
        let t = e.on_tick_staged(&snap(7, 100), now, &stages).unwrap();
        assert_eq!(t.tick_ts, now);
        assert_eq!(t.ready_at, now + stages.ingress());
        let late = Timestamp::from_micros(50);
        let t = e.on_tick_staged(&snap(9, 100), late, &stages).unwrap();
        assert_eq!(t.tick_ts, Timestamp::from_micros(9));
        assert_eq!(t.ready_at, late + stages.ingress());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_queue_is_rejected() {
        let _ = engine(3, 0);
    }
}
