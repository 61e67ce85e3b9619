//! Cross-crate integration below the system level: codecs over real
//! matching-engine output, offload engine over real feed sessions, and
//! scheduler/profile consistency.

use lighttrader::accel::{static_plan, DeviceProfile, DvfsTable};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::ModelRegistry;
use lighttrader::pipeline::{LocalBook, OffloadEngine, PacketParser, PipelineLatencies};
use lighttrader::prelude::*;
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::sbe::SbeEncoder;
use std::time::Duration;

/// A full agent-market session round-trips the SBE codec losslessly and
/// the parsed mirror matches the generator's own snapshots.
#[test]
fn feed_to_parser_book_consistency() {
    use lighttrader::feed::{AgentFlow, AgentParams};
    let mut flow = AgentFlow::new(Symbol::new("ESU6"), AgentParams::default(), 21);
    let encoder = SbeEncoder::new();
    let mut parser = PacketParser::new();
    let mut mirror = LocalBook::new();

    for i in 0..3_000u64 {
        let ts = Timestamp::from_micros(i);
        let events = flow.step(ts);
        let mut payload = Vec::new();
        for e in &events {
            payload.extend_from_slice(&encoder.encode(e));
        }
        let datagram = Datagram::new(i as u32, ts, events.len() as u16, payload);
        let decoded = parser.ingest(&datagram.encode());
        assert_eq!(decoded, events, "codec must be lossless");
        for e in &decoded {
            mirror.apply(e);
        }
    }
    assert_eq!(parser.stats().corrupt, 0);
    // The mirror's view equals the exchange's ten-level snapshot.
    let ts = Timestamp::from_micros(3_000);
    let truth = flow.engine().book().snapshot(10, ts);
    let mut local = LobSnapshot::default();
    mirror.snapshot_into(10, ts, &mut local);
    assert_eq!(truth, local);
}

/// The offload engine's tensors feed the real models: window geometry,
/// normalization, and BF16 rounding all line up.
#[test]
fn offload_feeds_models() {
    let session = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
        .duration_secs(1.0)
        .seed(4)
        .build();
    for (window, kind) in [
        (20usize, ModelKind::VanillaCnn),
        (16, ModelKind::TransLob),
        (24, ModelKind::DeepLob),
    ] {
        let mut registry = ModelRegistry::tiny_with_kinds(&[kind], 1);
        assert_eq!(registry.max_window(), window);
        let mut offload = OffloadEngine::new(session.norm.clone(), window, 32);
        let stages = PipelineLatencies::fpga();
        let mut predictions = 0;
        for tick in session.trace.iter().take(200) {
            offload.on_tick_staged(&tick.snapshot, tick.ts, &stages);
            if offload.pop_ticket().is_some() {
                let tensor = offload.latest_tensor();
                assert_eq!(tensor.shape(), &[window, 40]);
                let p = registry.forward(kind, &tensor);
                assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
                predictions += 1;
            }
        }
        assert_eq!(predictions, 200 - (window - 1));
    }
}

/// Paper-scale specs and tiny specs share one op-count code path.
#[test]
fn spec_scaling_consistency() {
    assert!(CnnSpec::paper().ops() > CnnSpec::tiny().ops() * 1_000);
    assert!(TransLobSpec::paper().ops() > TransLobSpec::tiny().ops() * 1_000);
    assert!(DeepLobSpec::paper().ops() > DeepLobSpec::tiny().ops() * 1_000);
}

/// The workload scheduler's commitments always respect the profile's own
/// latency and power predictions plus the static plan's floor.
#[test]
fn scheduler_profile_consistency() {
    use lighttrader::sched::schedule_workload;
    let profile = DeviceProfile::lighttrader();
    for kind in ModelKind::ALL {
        let plan = static_plan(kind, 4, PowerCondition::Limited);
        let table = DvfsTable::evaluation().at_least(plan.point.freq_ghz);
        for t_avail_us in [300u64, 620, 1_500, 5_000] {
            for queued in [1u32, 4, 16] {
                let budget = PowerCondition::Limited.accelerator_budget_w() / 4.0;
                if let Some(d) = schedule_workload(
                    &profile,
                    kind,
                    queued,
                    Duration::from_micros(t_avail_us),
                    budget,
                    &table,
                ) {
                    assert!(d.t_total <= Duration::from_micros(t_avail_us));
                    assert!(d.power_w <= budget + 1e-9);
                    assert!(d.batch >= 1 && d.batch <= queued.min(16));
                    assert!(d.point.freq_ghz >= plan.point.freq_ghz - 1e-9);
                }
            }
        }
    }
}

/// Serde round-trips for the data-bearing types used in persisted traces
/// and experiment outputs.
#[test]
fn serde_round_trips() {
    let session = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
        .duration_secs(0.2)
        .seed(8)
        .build();
    let json = serde_json::to_string(&session.trace).unwrap();
    let back: lighttrader::feed::TickTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, session.trace);

    // Float JSON round-trips lose the last ULP; compare behaviourally.
    let norm_json = serde_json::to_string(&session.norm).unwrap();
    let norm_back: lighttrader::feed::NormStats = serde_json::from_str(&norm_json).unwrap();
    let raw = session.trace.ticks[50].snapshot.to_features(10);
    let mut a = raw.clone();
    let mut b = raw;
    session.norm.normalize(&mut a);
    norm_back.normalize(&mut b);
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-4, "{x} vs {y}");
    }
}
