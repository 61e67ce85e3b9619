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

use crate::multi_offload::MultiOffload;
use crate::stages::{IngressStamp, PipelineLatencies};
use lt_dnn::bf16::bf16_round;
use lt_dnn::Tensor;
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};

/// A queued inference request: one tick whose input tensor is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorTicket {
    /// Monotone tick index within the session.
    pub tick_id: u64,
    /// Exchange timestamp of the triggering tick.
    pub tick_ts: Timestamp,
    /// When the tensor became ready for DMA.
    pub ready_at: Timestamp,
    /// Per-stage ingress latency that produced `ready_at`.
    pub ingress: IngressStamp,
}

/// The sliding feature window of one instrument shard: one flat,
/// pre-allocated ring of `window × 4·depth` floats. Each tick's features
/// are written, normalized, and BF16-rounded *in place* in the next row
/// slot, so steady-state ingestion never allocates. Every shard of a
/// [`MultiOffload`] owns one.
#[derive(Debug, Clone)]
pub struct FeatureWindow {
    norm: NormStats,
    window: usize,
    depth: usize,
    /// Flat ring of `window` normalized feature rows, recycled in place.
    ring: Vec<f32>,
    /// Rows currently valid (saturates at `window` once warm).
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
            ring: vec![0.0; window * LobSnapshot::feature_count(depth)],
            rows: 0,
            next_row: 0,
        }
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
        self.next_row = (self.next_row + 1) % self.window;
        if self.rows < self.window {
            self.rows += 1;
        }
        self.rows == self.window
    }

    /// True once the ring holds a full window of rows.
    pub fn is_warm(&self) -> bool {
        self.rows == self.window
    }

    /// The configured window length, in ticks.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feature columns per row (`4 × depth`).
    pub fn width(&self) -> usize {
        self.depth * 4
    }

    /// Writes the window into `out` as `window × 4·depth` floats, rows
    /// in chronological order — the allocation-free staging primitive;
    /// batched consumers use it to fill recycled lane buffers.
    ///
    /// # Panics
    ///
    /// Panics if the window is not warm yet or `out` has the wrong
    /// length.
    pub fn write_into(&self, out: &mut [f32]) {
        assert!(self.is_warm(), "feature FIFO not warm yet");
        let width = self.width();
        assert_eq!(out.len(), self.window * width, "window buffer size");
        // Once warm, `next_row` is the oldest row in the ring; emit rows
        // in chronological order from there.
        for k in 0..self.window {
            let r = (self.next_row + k) % self.window;
            out[k * width..(k + 1) * width].copy_from_slice(&self.ring[r * width..(r + 1) * width]);
        }
    }

    /// Writes the row the last [`Self::push`] stored — the last row of
    /// what [`Self::write_into`] would write — into `out`. A consumer that
    /// wrote the window out one push ago appends this row to hold that
    /// window and the current one in `window + 1` rows.
    ///
    /// # Panics
    ///
    /// Panics if nothing was pushed yet or `out` is not one row long.
    pub fn write_newest_row_into(&self, out: &mut [f32]) {
        assert!(self.rows > 0, "feature FIFO is empty");
        let width = self.width();
        let r = (self.next_row + self.window - 1) % self.window;
        out.copy_from_slice(&self.ring[r * width..(r + 1) * width]);
    }
}

/// The single-symbol offload engine: the one-shard view of
/// [`MultiOffload`]. It holds no queue, counter or window of its own —
/// every method is the shard-0 call on the engine it wraps, with the
/// shard tag taken off the tickets — so warm-up, admission, tick ids,
/// FIFO order and stale management are [`MultiOffload`]'s by
/// construction. It exists for the callers that serve exactly one
/// instrument: `LightTrader`, the single-device baseline, the benchmark.
#[derive(Debug, Clone)]
pub struct OffloadEngine(MultiOffload);

impl OffloadEngine {
    /// Creates an engine with the paper's geometry: the feature FIFO
    /// spans `window` ticks of `norm.depth()`-level snapshots and the
    /// tensor queue holds `capacity` tickets, all allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `capacity`, or the stats' depth is unusable.
    pub fn new(norm: NormStats, window: usize, capacity: usize) -> Self {
        OffloadEngine(MultiOffload::new(vec![norm], window, capacity))
    }

    /// Tensors currently queued for the DNN pipeline.
    pub fn queue_len(&self) -> usize {
        self.0.queue_len()
    }

    /// The oldest queued ticket, if any.
    pub fn oldest(&self) -> Option<TensorTicket> {
        self.0.oldest().map(|t| t.ticket)
    }

    /// Ticks dropped because the queue was full.
    pub fn dropped_full(&self) -> u64 {
        self.0.dropped_full()
    }

    /// Tensors dropped because their deadline lapsed while queued.
    pub fn dropped_stale(&self) -> u64 {
        self.0.dropped_stale()
    }

    /// Ingests one tick arriving at `now`: normalizes its features into
    /// the FIFO and, once the window is warm, enqueues an inference
    /// request that is ready after the pipeline's ingress budget.
    ///
    /// Returns the ticket if one was enqueued (`None` while warming up or
    /// when the queue is full).
    pub fn on_tick_staged(
        &mut self,
        snapshot: &LobSnapshot,
        now: Timestamp,
        stages: &PipelineLatencies,
    ) -> Option<TensorTicket> {
        self.0
            .on_tick_staged(0, snapshot, now, stages)
            .map(|t| t.ticket)
    }

    /// True once the feature ring holds a full window.
    pub fn is_warm(&self) -> bool {
        self.0.shard_is_warm(0)
    }

    /// Pops the oldest queued ticket, if any.
    pub fn pop_ticket(&mut self) -> Option<TensorTicket> {
        self.0.pop_ticket().map(|t| t.ticket)
    }

    /// Pops up to `batch` tickets, oldest first, appending them to `out`.
    /// Allocation-free with a recycled caller-owned buffer
    /// (`tests/zero_alloc.rs`).
    pub fn pop_batch_into(&mut self, batch: usize, out: &mut Vec<TensorTicket>) {
        out.extend(self.0.drain_front(batch).map(|t| t.ticket));
    }

    /// Drops every queued ticket whose `tick_ts + deadline` is already in
    /// the past (the stale-management duty of Fig. 5) and returns how
    /// many were dropped.
    pub fn drop_stale(&mut self, now: Timestamp, deadline: std::time::Duration) -> u64 {
        self.0.drop_stale(now, deadline)
    }

    /// Materializes the current window as a fresh `[window, 4*depth]`
    /// input tensor; steady-state callers use [`Self::write_window_into`].
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is not warm yet.
    pub fn latest_tensor(&self) -> Tensor {
        let (window, width) = (self.0.window(), self.0.width());
        let mut data = vec![0.0; window * width];
        self.write_window_into(&mut data);
        Tensor::from_vec(data, &[window, width])
    }

    /// Writes the current window into `out` (`window × 4·depth` floats,
    /// chronological) without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is not warm yet or `out` has the wrong length.
    pub fn write_window_into(&self, out: &mut [f32]) {
        self.0.write_shard_window_into(0, out);
    }

    /// Writes the newest tick's feature row (`4·depth` floats) into `out`:
    /// the one row by which the current window differs from the one
    /// [`Self::write_window_into`] wrote a tick ago.
    ///
    /// # Panics
    ///
    /// Panics if no tick was ingested yet or `out` has the wrong length.
    pub fn write_newest_row_into(&self, out: &mut [f32]) {
        self.0.write_shard_newest_row_into(0, out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The pin on one-shard semantics: literal tick ids, admission
    //! order, capacity drops, the stale prefix, window recency and BF16
    //! rounding, all through the view.

    use super::*;
    use lt_lob::snapshot::SnapshotLevel;
    use lt_lob::{Price, Qty};
    use std::time::Duration;

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
        assert_eq!(e.queue_len(), 1);
    }

    #[test]
    fn queue_capacity_drops_excess() {
        let mut e = engine(1, 2);
        for i in 0..5u64 {
            tick(&mut e, i, 100);
        }
        assert_eq!(e.queue_len(), 2);
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
        assert_eq!(e.queue_len(), 1);
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
    fn drop_stale_removes_expired_prefix() {
        let mut e = engine(1, 10);
        for i in [0u64, 10, 500, 900] {
            tick(&mut e, i, 100);
        }
        // Deadline 1 ms, now = 1.2 ms: ticks at 0 µs and 10 µs expired.
        let stale = e.drop_stale(Timestamp::from_micros(1_200), Duration::from_millis(1));
        assert_eq!(stale, 2);
        assert_eq!(e.dropped_stale(), 2);
        assert_eq!(e.queue_len(), 2);
        assert_eq!(e.oldest().unwrap().tick_ts, Timestamp::from_micros(500));
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

    /// A window written out at one tick plus the newest row of each later
    /// tick is every later window: window `j` is rows `j..j + window`.
    #[test]
    fn newest_rows_extend_a_written_window_into_the_later_ones() {
        let (window, width) = (3, 4);
        let mut e = engine(window, 10);
        for i in 0..4u64 {
            tick(&mut e, i, 100 + i as i64);
        }
        let mut swept = vec![0.0; (window + 5) * width];
        e.write_window_into(&mut swept[..window * width]);
        for j in 1..=5 {
            tick(&mut e, 4 + j as u64, 200 + 7 * j as i64);
            e.write_newest_row_into(&mut swept[(window + j - 1) * width..][..width]);
            let later = &swept[j * width..][..window * width];
            assert_eq!(later, e.latest_tensor().data(), "window {j}");
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

    #[test]
    fn staged_ingest_stamps_ingress_and_derives_ready_at() {
        let stages = PipelineLatencies::fpga();
        let mut e = engine(1, 10);
        let now = Timestamp::from_micros(7);
        let t = e.on_tick_staged(&snap(7, 100), now, &stages).unwrap();
        assert_eq!(t.ingress, stages.ingress_stamp());
        assert_eq!(t.ready_at, now + stages.ingress());
        assert_eq!(t.ready_at.since(t.tick_ts), t.ingress.total());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_queue_is_rejected() {
        let _ = engine(3, 0);
    }
}
