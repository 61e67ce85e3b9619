//! Sessions shared by the back-test's integration tests.

use lt_feed::{MultiMarketSession, MultiSessionBuilder};
use lt_sim::traffic::{evaluation_flash, evaluation_hawkes};

/// The multi-instrument evaluation session: `symbols` correlated
/// synthetic feeds at the calibrated per-symbol traffic, with a Zipf skew
/// of `skew` concentrating load on the leading symbols.
pub fn multi_evaluation_session(
    secs: f64,
    seed: u64,
    symbols: usize,
    skew: f64,
) -> MultiMarketSession {
    MultiSessionBuilder::new(evaluation_hawkes())
        .flash_bursts(evaluation_flash())
        .symbols(symbols)
        .skew(skew)
        .duration_secs(secs)
        .seed(seed)
        .build()
}
