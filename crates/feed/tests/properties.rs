//! Property tests for the feed substrate: trace persistence and session
//! generation.

use lt_feed::trace_io::{decode_trace, encode_trace};
use lt_feed::{HawkesParams, SessionBuilder, TickTrace};
use lt_lob::snapshot::SnapshotLevel;
use lt_lob::{LobSnapshot, Price, Qty, Symbol, Timestamp};
use proptest::prelude::*;

fn snapshot_strategy() -> impl Strategy<Value = LobSnapshot> {
    let level = (any::<i64>(), any::<u64>()).prop_map(|(p, q)| SnapshotLevel {
        price: Price::new(p),
        qty: Qty::new(q),
    });
    (
        any::<u64>(),
        proptest::collection::vec(level.clone(), 0..10),
        proptest::collection::vec(level, 0..10),
    )
        .prop_map(|(ts, bids, asks)| LobSnapshot {
            ts: Timestamp::from_nanos(ts),
            bids,
            asks,
        })
}

fn trace_strategy() -> impl Strategy<Value = TickTrace> {
    proptest::collection::vec((0u64..1 << 40, snapshot_strategy()), 0..40).prop_map(|mut ticks| {
        ticks.sort_by_key(|(ts, _)| *ts);
        let mut trace = TickTrace::new(Symbol::new("ESU6"));
        for (ts, snapshot) in ticks {
            trace.push(Timestamp::from_nanos(ts), snapshot);
        }
        trace
    })
}

proptest! {
    /// The LTTR binary format round-trips arbitrary traces exactly.
    #[test]
    fn lttr_round_trips(trace in trace_strategy()) {
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Any single-byte corruption of an encoded trace is rejected.
    #[test]
    fn lttr_detects_any_flip(
        trace in trace_strategy(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_trace(&trace);
        let pos = at.index(bytes.len());
        bytes[pos] ^= flip;
        prop_assert!(decode_trace(&bytes).is_err());
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn lttr_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_trace(&bytes);
    }

    /// Sessions of any duration/seed produce ordered, two-sided ticks and
    /// fit stats of the right width.
    #[test]
    fn sessions_are_well_formed(seed in 0u64..500, ms in 20u64..200) {
        let session = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(ms as f64 / 1000.0)
            .seed(seed)
            .build();
        for pair in session.trace.ticks.windows(2) {
            prop_assert!(pair[0].ts <= pair[1].ts);
        }
        prop_assert_eq!(session.norm.width(), 40);
        if !session.trace.is_empty() {
            // Normalization over the fitted session stays finite.
            let mut f = session.trace.ticks[0].snapshot.to_features(10);
            session.norm.normalize(&mut f);
            prop_assert!(f.iter().all(|v| v.is_finite()));
        }
    }
}
