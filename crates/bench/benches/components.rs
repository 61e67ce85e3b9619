//! Component micro-benchmarks: the hot-path costs of the trading
//! pipeline, codecs, models, and scheduler — the numbers a latency
//! engineer would profile on real hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lighttrader::accel::cgra::{CgraSim, GridConfig};
use lighttrader::accel::{DeviceProfile, DvfsTable, PowerCondition};
use lighttrader::dnn::{ModelKind, ModelRegistry, Tensor};
use lighttrader::feed::{NormStats, SessionBuilder};
use lighttrader::pipeline::{OffloadEngine, PacketParser};
use lighttrader::prelude::*;
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::sbe::{SbeDecoder, SbeEncoder};
use lighttrader::sched::schedule_workload;
use std::time::Duration;

fn bench_matching_engine(c: &mut Criterion) {
    c.bench_function("lob/submit_and_match", |b| {
        b.iter_with_setup(
            || {
                let mut e = MatchingEngine::new(Symbol::new("ESU6"));
                for i in 0..10 {
                    e.submit(
                        NewOrder::limit(
                            OrderId::new(i + 1),
                            Side::Ask,
                            Price::new(18_001 + i as i64),
                            Qty::new(5),
                        ),
                        Timestamp::ZERO,
                    );
                }
                (e, 100u64)
            },
            |(mut e, id)| {
                e.submit(
                    NewOrder::limit(OrderId::new(id), Side::Bid, Price::new(18_003), Qty::new(7)),
                    Timestamp::from_nanos(1),
                )
            },
        )
    });
}

fn bench_codec(c: &mut Criterion) {
    let event = MarketEvent {
        seq: 7,
        ts: Timestamp::from_nanos(100),
        kind: lighttrader::lob::events::MarketEventKind::Book(BookDelta::Add {
            id: OrderId::new(1),
            side: Side::Bid,
            price: Price::new(18_000),
            qty: Qty::new(3),
        }),
    };
    let encoder = SbeEncoder::new();
    let decoder = SbeDecoder::new();
    let bytes = encoder.encode(&event);
    c.bench_function("protocol/sbe_encode", |b| b.iter(|| encoder.encode(&event)));
    c.bench_function("protocol/sbe_decode", |b| b.iter(|| decoder.decode(&bytes)));

    let datagram = Datagram::new(1, Timestamp::from_nanos(1), 1, bytes.clone()).encode();
    c.bench_function("pipeline/parser_ingest", |b| {
        b.iter_with_setup(PacketParser::new, |mut p| p.ingest(&datagram))
    });
}

fn bench_offload_engine(c: &mut Criterion) {
    let session = SessionBuilder::calm_traffic()
        .duration_secs(0.2)
        .seed(1)
        .build();
    let snapshot = &session.trace.ticks[50].snapshot;
    c.bench_function("pipeline/offload_on_tick", |b| {
        b.iter_with_setup(
            || {
                let mut o = OffloadEngine::new(session.norm.clone(), 100, 64);
                for t in session.trace.iter().take(99) {
                    o.on_tick(&t.snapshot, t.ts);
                }
                o
            },
            |mut o| o.on_tick(snapshot, Timestamp::from_millis(1)),
        )
    });
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnn/tiny_forward");
    for kind in ModelKind::ALL {
        let mut registry = ModelRegistry::tiny_with_kinds(&[kind], 1);
        let model = registry.model(kind).expect("kind was just registered");
        let input = Tensor::random(&[model.window(), model.features()], 1.0, 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &input,
            |b, input| b.iter(|| registry.forward(kind, input)),
        );
    }
    group.finish();
}

fn bench_cgra(c: &mut Criterion) {
    let a = Tensor::random(&[32, 32], 1.0, 3);
    let bm = Tensor::random(&[32, 32], 1.0, 4);
    c.bench_function("accel/cgra_matmul_32", |b| {
        b.iter_with_setup(
            || CgraSim::new(GridConfig::lighttrader()),
            |mut sim| sim.matmul(&a, &bm),
        )
    });
}

fn bench_scheduler_decision(c: &mut Criterion) {
    let profile = DeviceProfile::lighttrader();
    let table = DvfsTable::evaluation();
    c.bench_function("sched/algorithm1_decision", |b| {
        b.iter(|| {
            schedule_workload(
                &profile,
                ModelKind::TransLob,
                8,
                Duration::from_micros(620),
                PowerCondition::Sufficient.accelerator_budget_w(),
                &table,
            )
        })
    });
}

fn bench_session_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("feed/session_generation");
    group.sample_size(10);
    group.bench_function("one_second", |b| {
        b.iter(|| {
            SessionBuilder::calm_traffic()
                .duration_secs(1.0)
                .seed(5)
                .build()
        })
    });
    group.finish();
    // Normalization fit on a fixed trace.
    let session = SessionBuilder::calm_traffic()
        .duration_secs(1.0)
        .seed(6)
        .build();
    c.bench_function("feed/norm_fit", |b| {
        b.iter(|| NormStats::fit(&session.trace, 10))
    });
}

criterion_group!(
    components,
    bench_matching_engine,
    bench_codec,
    bench_offload_engine,
    bench_models,
    bench_cgra,
    bench_scheduler_decision,
    bench_session_generation
);
criterion_main!(components);
