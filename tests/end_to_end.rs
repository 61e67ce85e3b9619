//! End-to-end integration: from exchange matching to generated orders,
//! across the full crate stack.

use lighttrader::prelude::*;
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::sbe::SbeEncoder;
use lighttrader::protocol::FixDecoder;

/// Drives a real matching engine, serializes its tick data through the
/// SBE/UDP codecs, parses it back inside LightTrader, runs inference,
/// and checks the generated orders decode on both wire formats.
#[test]
fn exchange_to_order_round_trip() {
    let mut system = LightTrader::builder(ModelKind::VanillaCnn).seed(7).build();
    let mut exchange = MatchingEngine::new(Symbol::new("ESU6"));
    let encoder = SbeEncoder::new();
    let fix = FixDecoder::new();
    let mut orders = Vec::new();

    for i in 0..200u64 {
        let ts = Timestamp::from_micros(50 * (i + 1));
        let side = if i % 2 == 0 { Side::Bid } else { Side::Ask };
        let price = if i % 11 == 10 {
            Price::new(18_000)
        } else if side == Side::Bid {
            Price::new(18_000 - 1 - (i % 5) as i64)
        } else {
            Price::new(18_000 + 1 + (i % 5) as i64)
        };
        let out = exchange.submit(
            NewOrder::limit(OrderId::new(i + 1), side, price, Qty::new(2)),
            ts,
        );
        let mut payload = Vec::new();
        for event in &out.events {
            payload.extend_from_slice(&encoder.encode(event));
        }
        let datagram = Datagram::new(i as u32, ts, out.events.len() as u16, payload);
        for outcome in system.on_datagram(&datagram.encode()) {
            if let TickOutcome::Order { order, .. } = outcome {
                orders.push(order);
            }
        }
    }

    let stats = system.parser_stats();
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.gap_packets, 0);
    assert_eq!(stats.packets, 200);
    assert!(system.inferences() > 150, "{}", system.inferences());
    assert!(!orders.is_empty(), "strategy never fired");

    // Every order survives both wire encodings.
    let fix_enc = lighttrader::protocol::FixEncoder::new();
    for order in &orders {
        let (bin, used) =
            lighttrader::protocol::ilink::OrderMessage::decode(&order.encode()).unwrap();
        assert_eq!(&bin, order);
        assert_eq!(used, order.encode().len());
        assert_eq!(&fix.decode(&fix_enc.encode(order)).unwrap(), order);
    }
    // Risk cap was respected throughout.
    assert!(system.position().unsigned_abs() <= 50);
}

/// A lossy feed (dropped datagrams) is survived: gaps are counted and the
/// pipeline keeps producing inferences.
#[test]
fn survives_packet_loss() {
    let mut system = LightTrader::builder(ModelKind::TransLob).seed(3).build();
    let mut exchange = MatchingEngine::new(Symbol::new("ESU6"));
    let encoder = SbeEncoder::new();

    let mut dropped = 0u64;
    for i in 0..120u64 {
        let ts = Timestamp::from_micros(80 * (i + 1));
        let side = if i % 2 == 0 { Side::Bid } else { Side::Ask };
        let price = if side == Side::Bid {
            Price::new(17_999)
        } else {
            Price::new(18_001)
        };
        let out = exchange.submit(
            NewOrder::limit(OrderId::new(i + 1), side, price, Qty::new(1)),
            ts,
        );
        if i % 7 == 3 {
            dropped += 1;
            continue; // datagram lost on the wire
        }
        let mut payload = Vec::new();
        for event in &out.events {
            payload.extend_from_slice(&encoder.encode(event));
        }
        let datagram = Datagram::new(i as u32, ts, out.events.len() as u16, payload);
        system.on_datagram(&datagram.encode());
    }
    let stats = system.parser_stats();
    assert_eq!(stats.gap_packets, dropped);
    assert!(stats.packets > 90);
    assert!(system.inferences() > 80);
}

/// A wire session: 240 framed SBE datagrams of a seeded agent flow
/// against a real matching engine, one agent step every 1.5 ms. Agent
/// steps per datagram are mostly one (1–3 events), with runs that cross
/// no, one and several sweep cuts; returns the datagrams and the most
/// events any one of them carries.
fn agent_wire() -> (Vec<Vec<u8>>, u16) {
    use lighttrader::feed::{AgentFlow, AgentParams};

    const ACTIONS: [usize; 12] = [1, 1, 2, 1, 1, 5, 1, 3, 1, 11, 1, 40];
    let mut flow = AgentFlow::new(Symbol::new("ESU6"), AgentParams::default(), 23);
    let encoder = SbeEncoder::new();
    let mut tick = 0u64;
    let mut widest = 0;
    let wire = (0..240u32)
        .map(|seq| {
            let mut payload = Vec::new();
            let mut count = 0u16;
            let ts = Timestamp::from_micros(1_500 * (tick + 1));
            for _ in 0..ACTIONS[seq as usize % ACTIONS.len()] {
                tick += 1;
                for event in flow.step(Timestamp::from_micros(1_500 * tick)) {
                    payload.extend_from_slice(&encoder.encode(&event));
                    count += 1;
                }
            }
            widest = widest.max(count);
            Datagram::new(seq, ts, count, payload).encode()
        })
        .collect();
    (wire, widest)
}

/// The datagram is the unit of inference dispatch, the tick the unit of
/// decision: a trader fed a wire session datagram by datagram — sweeps of
/// up to 16 windows a registry call — and one fed the same decoded events
/// one `on_event` at a time make the same decisions in the same order,
/// with kill switch and rate limiter armed, on all three models.
#[test]
fn datagrams_and_single_events_drive_the_same_trades() {
    use lighttrader::pipeline::trading::NoOrderReason;
    use lighttrader::pipeline::{PacketParser, RiskLimits};

    let (wire, widest) = agent_wire();
    assert!(widest > 32, "a datagram of several sweeps: {widest} events");

    let (mut rate_limited, mut killed) = (0, 0);
    for kind in ModelKind::ALL {
        let build = || {
            LightTrader::builder(kind)
                .seed(7)
                .risk(RiskLimits {
                    min_confidence: 0.0,
                    max_position: 100_000,
                    order_qty: 1,
                    max_spread_ticks: 1_000,
                })
                .order_rate_limit(150)
                .kill_switch(-300)
                .build()
        };
        let (mut by_datagram, mut by_event) = (build(), build());
        let mut decoder = PacketParser::new();
        for (seq, bytes) in wire.iter().enumerate() {
            let swept = by_datagram.on_datagram(bytes);
            let single: Vec<TickOutcome> = decoder
                .ingest(bytes)
                .iter()
                .map(|event| by_event.on_event(event))
                .collect();
            assert_eq!(swept, single, "{kind}: datagram {seq}");
            killed += swept
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        TickOutcome::NoOrder {
                            reason: NoOrderReason::Killed,
                            ..
                        }
                    )
                })
                .count();
        }
        let shown = |t: &LightTrader| {
            (
                t.inferences(),
                t.orders_sent(),
                t.suppressed(),
                t.rate_limited(),
                t.position(),
                t.cash_ticks(),
                t.stream_stats(kind),
            )
        };
        assert_eq!(shown(&by_datagram), shown(&by_event), "{kind}");
        for trader in [&by_datagram, &by_event] {
            let stats = trader.stream_stats(kind);
            assert_eq!(stats.hits + stats.misses, trader.inferences(), "{kind}");
            assert!(trader.inferences() > 800, "{kind}: {}", trader.inferences());
        }
        rate_limited += by_datagram.rate_limited();
    }
    assert!(
        rate_limited > 0 && killed > 0,
        "both gates must have engaged: {rate_limited} rate-limited, {killed} killed"
    );
}

/// A wire session replayed into two fresh traders comes out the same,
/// outcome for outcome, counter for counter, on every model.
#[test]
fn replay_is_deterministic_end_to_end() {
    use lighttrader::pipeline::RiskLimits;

    let (wire, _) = agent_wire();
    let mut sent = 0;
    for kind in ModelKind::ALL {
        let run = || {
            let mut system = LightTrader::builder(kind)
                .seed(7)
                .risk(RiskLimits {
                    min_confidence: 0.0,
                    max_position: 100_000,
                    order_qty: 1,
                    max_spread_ticks: 1_000,
                })
                .build();
            let mut outcomes = Vec::new();
            for bytes in &wire {
                system.on_datagram_into(bytes, &mut outcomes);
            }
            let shown = (
                system.inferences(),
                system.orders_sent(),
                system.position(),
                system.cash_ticks(),
            );
            (outcomes, shown)
        };
        let (outcomes, shown) = run();
        assert_eq!(run(), (outcomes, shown), "{kind}");
        assert!(shown.0 > 0, "{kind}");
        sent += shown.1;
    }
    assert!(sent > 0, "no model sent an order");
}

/// All three benchmark models run through the same back-test harness and
/// produce consistent accounting.
#[test]
fn backtest_accounting_consistency() {
    let trace = lighttrader::sim::traffic::evaluation_trace(4.0, 99);
    for kind in ModelKind::ALL {
        for policy in Policy::ALL {
            let cfg = BacktestConfig::new(kind, 2, PowerCondition::Limited).with_policy(policy);
            let m = run_lighttrader(&trace, &cfg);
            assert_eq!(
                m.total(),
                m.responded + m.late + m.dropped_full + m.dropped_stale + m.deferred,
                "{kind}/{policy}"
            );
            assert_eq!(m.latency_samples() as u64, m.responded);
            assert!(m.response_rate() >= 0.0 && m.response_rate() <= 1.0);
            assert!((m.response_rate() + m.miss_rate() - 1.0).abs() < 1e-12);
            assert!(m.batched_queries >= m.batches);
        }
    }
}
